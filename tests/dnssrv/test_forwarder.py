"""Forwarding resolver (DNS proxy) tests."""

import dataclasses

import pytest

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.message import make_query, make_response
from repro.dnslib.records import AData, OptData, ResourceRecord
from repro.dnslib.wire import decode_message, encode_message
from repro.dnslib.zone import parse_master_file
from repro.dnssrv.forwarder import ForwardingResolver, _Outstanding
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network
from repro.netsim.packet import Datagram

ZONE_TEXT = """\
$ORIGIN ucfsealresearch.net.
$TTL 300
@ IN SOA ns1 hostmaster 1 2 3 4 5
or000.0000000 IN A 45.76.1.10
"""

PROXY_IP = "201.10.0.5"
UPSTREAM_IP = "93.184.10.1"
CLIENT_IP = "8.8.4.100"


def build_world(mangle=None):
    network = Network()
    hierarchy = build_hierarchy(network)
    hierarchy.auth.load_zone(parse_master_file(ZONE_TEXT))
    upstream = RecursiveResolver(UPSTREAM_IP, hierarchy.root_servers)
    upstream.attach(network)
    proxy = ForwardingResolver(PROXY_IP, UPSTREAM_IP, mangle=mangle)
    proxy.attach(network)
    return network, proxy


def ask(network, qname, msg_id=9):
    responses = []
    network.bind(CLIENT_IP, 5555, lambda dg, net: responses.append(dg))
    query = make_query(qname, msg_id=msg_id)
    network.send(Datagram(CLIENT_IP, 5555, PROXY_IP, 53, encode_message(query)))
    network.run()
    return [decode_message(dg.payload) for dg in responses]


class TestForwarder:
    def test_relays_answer_with_original_id(self):
        network, proxy = build_world()
        (response,) = ask(network, "or000.0000000.ucfsealresearch.net", msg_id=321)
        assert response.header.msg_id == 321
        assert response.rcode == Rcode.NOERROR
        assert response.first_a_record().data.address == "45.76.1.10"
        assert proxy.forwarded == 1
        assert proxy.relayed == 1

    def test_mangle_hook_applies(self):
        def strip_ra(message):
            flags = dataclasses.replace(message.header.flags, ra=False)
            message.header = dataclasses.replace(message.header, flags=flags)
            return message

        network, _ = build_world(mangle=strip_ra)
        (response,) = ask(network, "or000.0000000.ucfsealresearch.net")
        assert not response.header.flags.ra  # CPE firmware rewrote the bit

    def test_dead_upstream_means_silence(self):
        network = Network()
        proxy = ForwardingResolver(PROXY_IP, "203.0.113.77")
        proxy.attach(network)
        responses = ask(network, "x.ucfsealresearch.net")
        assert responses == []

    def test_garbage_client_query_ignored(self):
        network, proxy = build_world()
        network.send(Datagram(CLIENT_IP, 5555, PROXY_IP, 53, b"garbage"))
        network.run()
        assert proxy.forwarded == 0


def build_blackholed(horizon=5.0):
    """A proxy whose upstream never answers (TEST-NET, unbound)."""
    network = Network()
    proxy = ForwardingResolver(
        PROXY_IP, "203.0.113.77", eviction_horizon=horizon
    )
    proxy.attach(network)
    return network, proxy


def send_query(network, qname, msg_id=1):
    query = make_query(qname, msg_id=msg_id)
    network.send(
        Datagram(CLIENT_IP, 5555, PROXY_IP, 53, encode_message(query))
    )
    network.run()


class TestOutstandingEviction:
    """Regression: the outstanding table leaked forever on a blackholed
    upstream, pinning the serve daemon's drain gate."""

    def test_blackholed_entries_evicted_after_the_horizon(self):
        network, proxy = build_blackholed(horizon=5.0)
        for index in range(4):
            send_query(network, f"q{index}.ucfsealresearch.net", index + 1)
        assert proxy.pending_count == 4
        network.schedule(5.0, lambda: None)
        network.run()
        # Drain polling alone (pending_count) must retire dead entries:
        # no further client or upstream traffic is needed.
        assert proxy.pending_count == 0
        assert proxy.evicted == 4

    def test_entries_survive_within_the_horizon(self):
        network, proxy = build_blackholed(horizon=5.0)
        send_query(network, "q.ucfsealresearch.net")
        network.schedule(4.9, lambda: None)
        network.run()
        assert proxy.pending_count == 1
        assert proxy.evicted == 0

    def test_handler_traffic_sweeps_at_most_once_per_horizon(self):
        network, proxy = build_blackholed(horizon=5.0)
        send_query(network, "old.ucfsealresearch.net", 1)
        network.schedule(6.0, lambda: None)
        network.run()
        # The next client query runs the amortized sweep inline.
        send_query(network, "new.ucfsealresearch.net", 2)
        assert proxy.evicted == 1
        assert len(proxy._outstanding) == 1  # only the fresh entry

    def test_answered_queries_are_not_counted_evicted(self):
        network, proxy = build_world()
        (response,) = ask(network, "or000.0000000.ucfsealresearch.net")
        assert response.rcode == Rcode.NOERROR
        network.schedule(60.0, lambda: None)
        network.run()
        assert proxy.pending_count == 0
        assert proxy.evicted == 0

    def test_horizon_none_disables_the_sweep(self):
        network = Network()
        proxy = ForwardingResolver(
            PROXY_IP, "203.0.113.77", eviction_horizon=None
        )
        proxy.attach(network)
        send_query(network, "q.ucfsealresearch.net")
        network.schedule(3600.0, lambda: None)
        network.run()
        assert proxy.pending_count == 1

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(ValueError, match="eviction_horizon"):
            ForwardingResolver(PROXY_IP, "1.2.3.4", eviction_horizon=0.0)


class TestTxidAllocation:
    """Regression: txid wraparound overwrote a still-outstanding entry,
    orphaning its client and cross-wiring the late answer."""

    def stuff(self, proxy, ids):
        placeholder = Datagram(CLIENT_IP, 5555, PROXY_IP, 53, b"")
        for msg_id in ids:
            proxy._outstanding[msg_id] = _Outstanding(
                placeholder, 0.0, proxy.upstream_ip
            )

    def test_allocation_skips_ids_still_in_flight(self):
        network, proxy = build_blackholed(horizon=3600.0)
        self.stuff(proxy, [1, 2, 3])
        proxy._next_id = 1
        send_query(network, "q.ucfsealresearch.net")
        assert 4 in proxy._outstanding
        assert proxy.txid_collisions == 3
        assert len(proxy._outstanding) == 4

    def test_wraparound_probes_past_the_top_id(self):
        network, proxy = build_blackholed(horizon=3600.0)
        self.stuff(proxy, [0xFFFF, 1])
        proxy._next_id = 0xFFFF
        send_query(network, "q.ucfsealresearch.net")
        assert 2 in proxy._outstanding
        assert proxy.txid_collisions == 2

    def test_more_than_65535_in_flight_drops_instead_of_overwriting(self):
        network, proxy = build_blackholed(horizon=3600.0)
        self.stuff(proxy, range(1, 0x10000))  # every id busy
        before = dict(proxy._outstanding)
        send_query(network, "overflow.ucfsealresearch.net")
        assert proxy.txid_exhausted == 1
        assert proxy.forwarded == 0
        assert proxy._outstanding == before  # nothing overwritten

    def test_slot_freed_by_an_answer_is_reusable(self):
        network, proxy = build_world()
        responses = []
        network.bind(CLIENT_IP, 5555, lambda dg, net: responses.append(dg))
        for msg_id in (9, 10):
            query = make_query("or000.0000000.ucfsealresearch.net", msg_id=msg_id)
            network.send(
                Datagram(CLIENT_IP, 5555, PROXY_IP, 53, encode_message(query))
            )
            network.run()
        assert proxy.pending_count == 0
        assert len(responses) == 2
        assert proxy.relayed == 2


class TestUpstreamAnswerMatching:
    """Regression: an upstream answer was matched by its id alone, so a
    forged answer or a late one for an earlier use of the id was relayed
    to the client, and the real answer was dropped as unsolicited."""

    def setup_world(self):
        network, proxy = build_blackholed(horizon=5.0)
        replies = []
        network.bind(
            CLIENT_IP, 5555,
            lambda dg, net: replies.append(decode_message(dg.payload)),
        )
        return network, proxy, replies

    def answer(self, network, proxy, src_ip, msg_id, qname, address):
        response = make_response(
            make_query(qname, msg_id=msg_id), aa=True,
            answers=[ResourceRecord(qname, QueryType.A, data=AData(address))],
        )
        proxy.handle_upstream(
            Datagram(src_ip, 53, PROXY_IP, proxy.forward_port,
                     encode_message(response)),
            network,
        )
        network.run()

    def test_answer_from_another_source_is_dropped(self):
        network, proxy, replies = self.setup_world()
        send_query(network, "a.ucfsealresearch.net", msg_id=41)
        (msg_id,) = proxy._outstanding
        self.answer(
            network, proxy, "6.6.6.6", msg_id, "a.ucfsealresearch.net",
            "6.6.6.6",
        )
        assert replies == []
        assert proxy.pending_count == 1
        self.answer(
            network, proxy, proxy.upstream_ip, msg_id,
            "a.ucfsealresearch.net", "192.0.2.1",
        )
        (reply,) = replies
        assert reply.header.msg_id == 41
        assert reply.first_a_record().data.address == "192.0.2.1"
        assert proxy.pending_count == 0

    def test_late_answer_for_a_reused_id_is_dropped(self):
        network, proxy, replies = self.setup_world()
        send_query(network, "a.ucfsealresearch.net", msg_id=41)
        (parked,) = proxy._outstanding
        # Client A's entry ages out unanswered; client B's query reuses
        # its id.
        network.schedule(5.0, lambda: None)
        network.run()
        assert proxy.pending_count == 0
        proxy._next_id = parked
        send_query(network, "b.ucfsealresearch.net", msg_id=42)
        assert list(proxy._outstanding) == [parked]
        self.answer(
            network, proxy, proxy.upstream_ip, parked,
            "a.ucfsealresearch.net", "192.0.2.1",
        )
        assert replies == []
        self.answer(
            network, proxy, proxy.upstream_ip, parked,
            "b.ucfsealresearch.net", "192.0.2.2",
        )
        (reply,) = replies
        assert reply.header.msg_id == 42
        assert reply.qname == "b.ucfsealresearch.net"
        assert [record.name for record in reply.answers] == [
            "b.ucfsealresearch.net"
        ]


class TestAdditionalsCarriedThrough:
    """Regression: the rewritten upstream query dropped the client's
    additional section, stripping EDNS OPT pseudo-records."""

    def opt_query(self, msg_id=21):
        query = make_query("or000.0000000.ucfsealresearch.net", msg_id=msg_id)
        # A minimal EDNS0 OPT: root owner, class carries the UDP payload
        # size, TTL carries the extended-rcode/flags word.
        query.additionals.append(
            ResourceRecord("", QueryType.OPT, 4096, 0, OptData())
        )
        return query

    def test_opt_record_reaches_the_upstream_on_the_wire(self):
        network = Network()
        seen = []
        network.bind(
            UPSTREAM_IP, 53,
            lambda dg, net: seen.append(decode_message(dg.payload)),
        )
        proxy = ForwardingResolver(PROXY_IP, UPSTREAM_IP)
        proxy.attach(network)
        network.send(
            Datagram(
                CLIENT_IP, 5555, PROXY_IP, 53,
                encode_message(self.opt_query()),
            )
        )
        network.run()
        (upstream_query,) = seen
        (opt,) = upstream_query.additionals
        assert opt.rtype == QueryType.OPT
        assert int(opt.rclass) == 4096
