"""Amplification threat-model tests (section II-C)."""

import pytest

from repro.attacks.reflection import AmplificationAttack
from repro.amplification.factor import (
    build_rich_zone,
    measure_amplification,
    sweep_qtypes,
)
from repro.dnslib.constants import QueryType
from repro.dnssrv.auth import AuthoritativeServer
from repro.dnssrv.delegation import Delegation
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network

ORIGIN = "amp.example"


def make_server():
    server = AuthoritativeServer("198.51.100.53")
    server.load_zone(build_rich_zone(ORIGIN))
    return server


class TestFactors:
    def test_any_dominates_other_types(self):
        server = make_server()
        sweep = sweep_qtypes(server, ORIGIN)
        by_type = {m.qtype: m.factor for m in sweep}
        assert by_type[QueryType.ANY] == max(by_type.values())
        assert by_type[QueryType.ANY] > by_type[QueryType.A]

    def test_any_factor_substantial(self):
        # Real-world ANY amplification runs tens of x; the rich zone
        # should comfortably exceed 10x with EDNS.
        server = make_server()
        measurement = measure_amplification(server, ORIGIN, QueryType.ANY)
        assert measurement.factor > 10.0

    def test_edns_lifts_512_cap(self):
        server = make_server()
        with_edns = measure_amplification(server, ORIGIN, QueryType.ANY, True)
        without = measure_amplification(server, ORIGIN, QueryType.ANY, False)
        assert without.response_bytes <= 512
        assert without.truncated
        assert with_edns.response_bytes > 512
        assert with_edns.factor > without.factor

    def test_factor_math(self):
        server = make_server()
        m = measure_amplification(server, ORIGIN, QueryType.A)
        assert m.factor == pytest.approx(m.response_bytes / m.query_bytes)

    def test_rich_zone_contents(self):
        zone = build_rich_zone(ORIGIN, a_records=3, mx_records=2, txt_records=1)
        any_records = zone.records_at(ORIGIN)
        types = {int(r.rtype) for r in any_records}
        assert {QueryType.SOA, QueryType.A, QueryType.MX, QueryType.TXT,
                QueryType.NS} <= types


class TestAttack:
    def build_world(self, resolver_count=3):
        network = Network(seed=1)
        hierarchy = build_hierarchy(network, sld=ORIGIN, auth_ip="198.51.100.53")
        hierarchy.auth.load_zone(build_rich_zone(ORIGIN))
        resolvers = []
        for index in range(resolver_count):
            ip = f"100.0.0.{index + 1}"
            resolver = RecursiveResolver(ip, hierarchy.root_servers)
            resolver.attach(network)
            resolvers.append(ip)
        return network, resolvers

    def test_spoofed_attack_amplifies(self):
        network, resolvers = self.build_world()
        attack = AmplificationAttack(
            network,
            attacker_ip="6.6.6.6",
            victim_ip="203.0.113.9",
            resolver_ips=resolvers,
            qname=ORIGIN,
        )
        report = attack.launch(rounds=2)
        assert report.queries_sent == 6
        assert report.victim_packets == 6  # every response hits the victim
        assert report.amplification_factor > 3.0
        assert report.victim_bytes > report.attacker_bytes

    def test_victim_receives_nothing_without_attack(self):
        network, resolvers = self.build_world()
        from repro.netsim.pcap import PacketTap

        tap = PacketTap("victim")
        network.attach_tap("203.0.113.9", tap)
        network.run()
        assert len(tap) == 0

    def test_more_resolvers_more_traffic(self):
        network, resolvers = self.build_world(resolver_count=5)
        attack = AmplificationAttack(
            network, "6.6.6.6", "203.0.113.9", resolvers, ORIGIN
        )
        report = attack.launch(rounds=1)
        network2, resolvers2 = self.build_world(resolver_count=1)
        attack2 = AmplificationAttack(
            network2, "6.6.6.6", "203.0.113.9", resolvers2, ORIGIN
        )
        report2 = attack2.launch(rounds=1)
        assert report.victim_bytes > report2.victim_bytes

    def test_requires_resolvers(self):
        network, _ = self.build_world()
        with pytest.raises(ValueError):
            AmplificationAttack(network, "6.6.6.6", "9.9.9.9", [], ORIGIN)
