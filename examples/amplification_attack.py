#!/usr/bin/env python3
"""DNS amplification through open resolvers (section II-C).

Builds a record-rich zone, measures per-qtype amplification factors
with and without EDNS(0), then launches a spoofed-source 'ANY' attack
through a fleet of simulated open resolvers and reports what the
victim absorbs.

Usage::

    python examples/amplification_attack.py [resolver_count]
"""

import sys

from repro.amplification import (
    build_rich_zone,
    measure_amplification,
    sweep_qtypes,
)
from repro.attacks import AmplificationAttack
from repro.dnslib.constants import QueryType
from repro.dnssrv.auth import AuthoritativeServer
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network

ORIGIN = "amp.example"


def main() -> None:
    resolver_count = int(sys.argv[1]) if len(sys.argv) > 1 else 50

    print("Per-qtype amplification factors (with EDNS 4096):")
    server = AuthoritativeServer("198.51.100.53")
    server.load_zone(build_rich_zone(ORIGIN))
    for measurement in sweep_qtypes(server, ORIGIN):
        name = QueryType(measurement.qtype).name
        print(
            f"  {name:>5}: query {measurement.query_bytes:>3} B -> "
            f"response {measurement.response_bytes:>5} B  "
            f"(factor {measurement.factor:5.1f}x)"
        )
    no_edns = measure_amplification(server, ORIGIN, QueryType.ANY, use_edns=False)
    print(
        f"  ANY without EDNS: capped at {no_edns.response_bytes} B "
        f"(factor {no_edns.factor:.1f}x, truncated={no_edns.truncated})"
    )

    print()
    print(f"Spoofed-source attack through {resolver_count} open resolvers:")
    network = Network(seed=3)
    hierarchy = build_hierarchy(network, sld=ORIGIN, auth_ip="198.51.100.53")
    hierarchy.auth.load_zone(build_rich_zone(ORIGIN))
    resolver_ips = []
    for index in range(resolver_count):
        ip = f"100.64.{index // 250}.{index % 250 + 1}"
        # (CGNAT space is reserved for probing, but these hosts are the
        # attacker's reflector list, not scan targets.)
        RecursiveResolver(ip, hierarchy.root_servers).attach(network)
        resolver_ips.append(ip)
    attack = AmplificationAttack(
        network,
        attacker_ip="6.6.6.6",
        victim_ip="203.0.113.9",
        resolver_ips=resolver_ips,
        qname=ORIGIN,
    )
    report = attack.launch(rounds=4)
    print(f"  queries sent:      {report.queries_sent:,}")
    print(f"  attacker spent:    {report.attacker_bytes:,} bytes")
    print(f"  victim received:   {report.victim_bytes:,} bytes "
          f"in {report.victim_packets:,} packets")
    print(f"  amplification:     {report.amplification_factor:.1f}x")


if __name__ == "__main__":
    main()
