"""End-to-end recursive resolution tests (Fig 1 of the paper)."""

import collections
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.fastwire import build_query_wire
from repro.dnslib.message import make_query, make_response
from repro.dnslib.records import AData, ResourceRecord, TxtData
from repro.dnslib.wire import decode_message, encode_message
from repro.dnslib.zone import parse_master_file
from repro.dnssrv import recursive as recursive_module
from repro.dnssrv.cache import DnsCache
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network
from repro.netsim.packet import Datagram

ZONE_TEXT = """\
$ORIGIN ucfsealresearch.net.
$TTL 300
@ IN SOA ns1 hostmaster 1 2 3 4 5
@ IN NS ns1
ns1 IN A 45.76.1.10
or000.0000000 IN A 45.76.1.10
alias IN CNAME or000.0000000
"""

RESOLVER_IP = "93.184.10.1"
CLIENT_IP = "8.8.4.100"


def build_world(record_traces=False):
    network = Network()
    hierarchy = build_hierarchy(network)
    hierarchy.auth.load_zone(parse_master_file(ZONE_TEXT))
    resolver = RecursiveResolver(
        RESOLVER_IP, hierarchy.root_servers, record_traces=record_traces
    )
    resolver.attach(network)
    return network, hierarchy, resolver


def ask(network, qname, msg_id=1, qtype=QueryType.A):
    responses = []
    if not network.is_bound(CLIENT_IP, 5555):
        network.bind(CLIENT_IP, 5555, lambda dg, net: responses.append(dg))
    query = make_query(qname, qtype=qtype, msg_id=msg_id)
    network.send(Datagram(CLIENT_IP, 5555, RESOLVER_IP, 53, encode_message(query)))
    network.run()
    return [decode_message(dg.payload) for dg in responses]


class TestRecursiveResolution:
    def test_full_chain_resolves(self):
        network, hierarchy, resolver = build_world()
        (response,) = ask(network, "or000.0000000.ucfsealresearch.net", msg_id=77)
        assert response.header.msg_id == 77
        assert response.header.flags.ra
        assert not response.header.flags.aa
        assert response.rcode == Rcode.NOERROR
        assert response.first_a_record().data.address == "45.76.1.10"
        # Each tier of the hierarchy was consulted exactly once.
        assert hierarchy.root.queries_served == 1
        assert hierarchy.tld.queries_served == 1
        assert len(hierarchy.auth.query_log) == 1
        assert hierarchy.auth.query_log[0].src_ip == RESOLVER_IP

    def test_trace_matches_fig1(self):
        network, hierarchy, resolver = build_world(record_traces=True)
        ask(network, "or000.0000000.ucfsealresearch.net")
        (trace,) = resolver.traces
        assert trace.outcome == "answered"
        assert [step for step in trace.steps] == [
            (hierarchy.root.ip, "referral"),
            (hierarchy.tld.ip, "referral"),
            (hierarchy.auth.ip, "answer"),
        ]

    def test_nxdomain_propagates(self):
        network, _, _ = build_world()
        (response,) = ask(network, "missing.ucfsealresearch.net")
        assert response.rcode == Rcode.NXDOMAIN
        assert response.header.flags.ra

    def test_cache_short_circuits_second_query(self):
        network, hierarchy, resolver = build_world()
        ask(network, "or000.0000000.ucfsealresearch.net", msg_id=1)
        ask(network, "or000.0000000.ucfsealresearch.net", msg_id=2)
        assert hierarchy.root.queries_served == 1  # only the first walk
        assert resolver.stats.cache_answers == 1

    def test_unique_subdomains_defeat_cache(self):
        # The paper's core methodology: fresh qnames can never be cache hits.
        network, hierarchy, resolver = build_world()
        ask(network, "or000.0000000.ucfsealresearch.net", msg_id=1)
        ask(network, "alias.ucfsealresearch.net", msg_id=2)
        assert resolver.stats.cache_answers == 0

    def test_cname_chain_resolves(self):
        network, _, resolver = build_world()
        (response,) = ask(network, "alias.ucfsealresearch.net")
        assert response.rcode == Rcode.NOERROR
        assert response.first_a_record().data.address == "45.76.1.10"

    def test_unreachable_root_servfails(self):
        network = Network()
        resolver = RecursiveResolver(RESOLVER_IP, ["203.0.113.99"], timeout=0.5)
        resolver.attach(network)
        (response,) = ask(network, "x.ucfsealresearch.net")
        assert response.rcode == Rcode.SERVFAIL
        assert resolver.stats.servfail == 1

    def test_fallback_to_second_root(self):
        network = Network()
        hierarchy = build_hierarchy(network)
        hierarchy.auth.load_zone(parse_master_file(ZONE_TEXT))
        resolver = RecursiveResolver(
            RESOLVER_IP, ["203.0.113.99", hierarchy.root.ip], timeout=0.5
        )
        resolver.attach(network)
        (response,) = ask(network, "or000.0000000.ucfsealresearch.net")
        assert response.rcode == Rcode.NOERROR

    def test_stats_counters(self):
        network, _, resolver = build_world()
        ask(network, "or000.0000000.ucfsealresearch.net")
        assert resolver.stats.client_queries == 1
        assert resolver.stats.upstream_queries == 3  # root, tld, auth
        assert resolver.stats.answered == 1

    def test_requires_root_servers(self):
        import pytest

        with pytest.raises(ValueError):
            RecursiveResolver(RESOLVER_IP, [])

    def test_malformed_client_query_ignored(self):
        network, _, resolver = build_world()
        network.send(Datagram(CLIENT_IP, 5555, RESOLVER_IP, 53, b"junk"))
        network.run()
        assert resolver.stats.client_queries == 0


def serve_raw(network, wires, port=6000):
    """Send raw client queries, run the network, return the reply payloads."""
    replies = []
    network.bind(CLIENT_IP, port, lambda dg, net: replies.append(dg.payload))
    for wire in wires:
        network.send(Datagram(CLIENT_IP, port, RESOLVER_IP, 53, wire))
    network.run()
    network.unbind(CLIENT_IP, port)
    return replies


def codec_oracle(wire, rrset):
    """The cache-hit reply rebuilt from the object codec."""
    return encode_message(
        make_response(decode_message(wire), answers=rrset, ra=True)
    )


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def codec_calls(monkeypatch):
    """Count the resolver's calls into the object codec."""
    counters = {}
    for name in ("decode_message", "encode_message"):
        counter = _Counted(getattr(recursive_module, name))
        monkeypatch.setattr(recursive_module, name, counter)
        counters[name] = counter
    return counters


HIT_NAME = "or000.0000000.ucfsealresearch.net"


class TestCacheHitMemo:
    def test_repeated_hits_encode_once_per_query_shape(self, codec_calls):
        network, hierarchy, resolver = build_world()
        ask(network, HIT_NAME)
        rrset = resolver.cache.get(HIT_NAME, QueryType.A, network.now)
        for counter in codec_calls.values():
            counter.calls = 0
        wires = [
            build_query_wire(HIT_NAME, msg_id=i, recursion_desired=bool(i % 2))
            for i in range(1000)
        ]
        replies = serve_raw(network, wires)
        assert sorted(replies) == sorted(codec_oracle(wire, rrset) for wire in wires)
        assert codec_calls["encode_message"].calls == 2  # rd=0 and rd=1
        assert codec_calls["decode_message"].calls == 0
        assert hierarchy.root.queries_served == 1
        assert resolver.stats.cache_answers == 1000

    def test_re_put_rrset_refills_the_memo(self, codec_calls):
        network, _, resolver = build_world()
        ask(network, HIT_NAME)
        wire = build_query_wire(HIT_NAME, msg_id=5)
        (first,) = serve_raw(network, [wire])
        fresh = [
            ResourceRecord(HIT_NAME, QueryType.A, ttl=300, data=AData("192.0.2.9"))
        ]
        resolver.cache.put(HIT_NAME, QueryType.A, fresh, network.now)
        encodes = codec_calls["encode_message"].calls
        replies = serve_raw(network, [wire, wire])
        assert replies == [codec_oracle(wire, fresh)] * 2
        assert replies[0] != first
        assert codec_calls["encode_message"].calls == encodes + 1

    def test_expired_rrset_is_resolved_again_then_memoised_afresh(
        self, codec_calls
    ):
        network, hierarchy, resolver = build_world()
        ask(network, HIT_NAME)
        wire = build_query_wire(HIT_NAME, msg_id=9)
        serve_raw(network, [wire])  # memoised against the first rrset
        hierarchy.auth.load_zone(
            parse_master_file(ZONE_TEXT.replace("or000.0000000 IN A 45.76.1.10",
                                                "or000.0000000 IN A 45.76.1.99"))
        )
        network.schedule(301.0, lambda: None)  # past the 300 s TTL
        network.run()
        upstream = resolver.stats.upstream_queries
        (after_expiry,) = serve_raw(network, [wire])
        assert resolver.stats.upstream_queries == upstream + 3
        assert decode_message(after_expiry).first_a_record().data.address == (
            "45.76.1.99"
        )
        rrset = resolver.cache.get(HIT_NAME, QueryType.A, network.now)
        encodes = codec_calls["encode_message"].calls
        replies = serve_raw(network, [wire, wire, wire])
        assert replies == [codec_oracle(wire, rrset)] * 3
        assert codec_calls["encode_message"].calls == encodes + 1

    def test_memo_never_outgrows_the_cache_bound(self):
        network = Network()
        resolver = RecursiveResolver(
            RESOLVER_IP, ["203.0.113.99"], cache=DnsCache(max_entries=4)
        )
        resolver.attach(network)
        rrsets = {
            QueryType.A: [
                ResourceRecord(HIT_NAME, QueryType.A, data=AData("192.0.2.1"))
            ],
            QueryType.TXT: [
                ResourceRecord(HIT_NAME, QueryType.TXT, data=TxtData(("memo",)))
            ],
        }
        for qtype, rrset in rrsets.items():
            resolver.cache.put(HIT_NAME, qtype, rrset, network.now)
        # Every flags word the strict parser accepts (qr=0, opcode 0),
        # crossed with two cached qtypes: far more shapes than the bound.
        for flags_word in range(0, 0x800, 7):
            for qtype, rrset in rrsets.items():
                wire = build_query_wire(HIT_NAME, qtype=qtype, msg_id=flags_word)
                wire = wire[:2] + flags_word.to_bytes(2, "big") + wire[4:]
                assert serve_raw(network, [wire]) == [codec_oracle(wire, rrset)]
                assert len(resolver._hit_memo) <= resolver.cache.max_entries


class TestTxidAllocation:
    def test_wraparound_skips_a_parked_id(self):
        network, hierarchy, resolver = build_world()
        parked, fresh = [], []
        network.bind(CLIENT_IP, 7001, lambda dg, net: parked.append(dg.payload))
        network.bind(CLIENT_IP, 7002, lambda dg, net: fresh.append(dg.payload))
        # Client A's first upstream query (id 1) vanishes into a
        # blackholed root and waits out its timeout.
        network.unbind(hierarchy.root.ip, 53)
        network.send(Datagram(CLIENT_IP, 7001, RESOLVER_IP, 53,
                              build_query_wire("gone.ucfsealresearch.net", msg_id=11)))
        network.run_until(0.5)
        assert 1 in resolver._pending
        hierarchy.root.attach(network)
        resolver._next_id = 0xFFFF
        network.send(Datagram(CLIENT_IP, 7002, RESOLVER_IP, 53,
                              build_query_wire(HIT_NAME, msg_id=22)))
        network.run()
        (answer,) = fresh
        (servfail,) = parked
        answer, servfail = decode_message(answer), decode_message(servfail)
        assert answer.header.msg_id == 22
        assert answer.first_a_record().data.address == "45.76.1.10"
        assert servfail.header.msg_id == 11
        assert servfail.qname == "gone.ucfsealresearch.net"
        assert servfail.rcode == Rcode.SERVFAIL
        assert resolver.stats.txid_collisions == 1
        assert resolver.pending_count == 0

    def test_exhausted_ids_fail_the_resolution(self):
        network, _, resolver = build_world()
        busy = object()
        resolver._pending.update(dict.fromkeys(range(1, 0x10000), busy))
        (reply,) = serve_raw(network, [build_query_wire(HIT_NAME, msg_id=3)])
        reply = decode_message(reply)
        assert reply.rcode == Rcode.SERVFAIL
        assert reply.header.msg_id == 3
        assert resolver.stats.txid_exhausted == 1
        assert resolver.stats.upstream_queries == 0
        assert resolver.pending_count == 0xFFFF


class _Timer:
    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ClockTransport:
    """A hand-driven clock and timer heap; records every datagram sent."""

    def __init__(self):
        self.now = 0.0
        self.sent = []
        self._timers = []
        self._seq = 0

    def bind(self, ip, port, handler):
        return None

    def send(self, datagram, origin=None):
        self.sent.append(datagram)

    def schedule(self, delay, callback):
        timer = _Timer(callback)
        heapq.heappush(self._timers, (self.now + delay, self._seq, timer))
        self._seq += 1
        return timer

    def advance(self, seconds):
        deadline = self.now + seconds
        while self._timers and self._timers[0][0] <= deadline:
            when, _, timer = heapq.heappop(self._timers)
            if not timer.cancelled:
                self.now = when
                timer.callback()
        self.now = deadline


TXID_ROOTS = ["10.0.0.1", "10.0.0.2"]
TXID_TIMEOUT = 1.0


class TestTxidInterleavings:
    @settings(max_examples=80, deadline=None)
    @given(
        parked=st.integers(0, 4),
        start=st.integers(0xFFF8, 0xFFFF),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["query", "answer", "drop", "tick"]),
                st.integers(0, 1000),
            ),
            max_size=40,
        ),
    )
    def test_every_client_gets_exactly_one_reply(self, parked, start, ops):
        """Queries, upstream answers (late ones included), losses and
        timeouts in any order, across a txid wraparound: no client is
        orphaned or answered twice, and the table empties within one
        timeout horizon of the last event."""
        transport = _ClockTransport()
        resolver = RecursiveResolver(
            RESOLVER_IP, TXID_ROOTS, timeout=TXID_TIMEOUT
        )
        resolver.attach(transport)
        clients = {}  # client port -> (msg_id, qname)
        replies = collections.defaultdict(list)
        in_flight = []

        def collect():
            for datagram in transport.sent:
                if datagram.dst_ip == CLIENT_IP:
                    replies[datagram.dst_port].append(
                        decode_message(datagram.payload)
                    )
                else:
                    in_flight.append(datagram)
            transport.sent.clear()

        def query():
            port = 20000 + len(clients)
            qname = f"n{len(clients)}.ucfsealresearch.net"
            msg_id = len(clients) * 7919 % 0x10000
            clients[port] = (msg_id, qname)
            resolver.handle_client(
                Datagram(CLIENT_IP, port, RESOLVER_IP, 53,
                         build_query_wire(qname, msg_id=msg_id)),
                transport,
            )

        def answer(upstream):
            asked = decode_message(upstream.payload)
            response = make_response(
                asked, aa=True, ra=False,
                answers=[ResourceRecord(asked.qname, QueryType.A,
                                        data=AData("192.0.2.1"))],
            )
            resolver.handle_upstream(
                Datagram(upstream.dst_ip, 53, RESOLVER_IP,
                         resolver.upstream_port, encode_message(response)),
                transport,
            )

        for _ in range(parked):
            query()
        collect()
        resolver._next_id = start
        for op, pick in ops:
            if op == "query":
                query()
            elif op == "answer" and in_flight:
                answer(in_flight.pop(pick % len(in_flight)))
            elif op == "drop" and in_flight:
                in_flight.pop(pick % len(in_flight))
            elif op == "tick":
                transport.advance(pick % 4 * TXID_TIMEOUT / 3)
            collect()
            assert all(len(got) <= 1 for got in replies.values())
        transport.advance(TXID_TIMEOUT * len(TXID_ROOTS))
        collect()
        assert resolver.pending_count == 0
        for port, (msg_id, qname) in clients.items():
            (reply,) = replies[port]
            assert reply.header.msg_id == msg_id
            assert reply.qname == qname
            assert all(record.name == qname for record in reply.answers)


def _a_answer(asked, address):
    """An authoritative A answer to ``asked`` pointing at ``address``."""
    return make_response(
        asked, aa=True, ra=False,
        answers=[ResourceRecord(asked.qname, QueryType.A,
                                data=AData(address))],
    )


class TestUpstreamAnswerMatching:
    """Regression: an upstream answer was matched by its id alone, so a
    forged answer or a late one for an earlier use of the id completed
    the resolution, and the real answer was dropped as unsolicited."""

    def setup_world(self):
        transport = _ClockTransport()
        resolver = RecursiveResolver(
            RESOLVER_IP, TXID_ROOTS, timeout=TXID_TIMEOUT
        )
        resolver.attach(transport)
        return transport, resolver

    def ask(self, transport, resolver, qname, port):
        resolver.handle_client(
            Datagram(CLIENT_IP, port, RESOLVER_IP, 53,
                     build_query_wire(qname, msg_id=port)),
            transport,
        )
        (upstream,) = transport.sent
        transport.sent.clear()
        return upstream

    def answer(self, transport, resolver, src_ip, response):
        resolver.handle_upstream(
            Datagram(src_ip, 53, RESOLVER_IP, resolver.upstream_port,
                     encode_message(response)),
            transport,
        )
        replies = [decode_message(dg.payload) for dg in transport.sent]
        transport.sent.clear()
        return replies

    def test_answer_from_another_source_is_dropped(self):
        transport, resolver = self.setup_world()
        upstream = self.ask(transport, resolver, "a.ucfsealresearch.net", 7001)
        asked = decode_message(upstream.payload)
        forged = _a_answer(asked, "6.6.6.6")
        assert self.answer(transport, resolver, "6.6.6.6", forged) == []
        assert resolver.pending_count == 1
        real = _a_answer(asked, "192.0.2.1")
        (reply,) = self.answer(transport, resolver, upstream.dst_ip, real)
        assert reply.first_a_record().data.address == "192.0.2.1"
        assert resolver.pending_count == 0

    def test_late_answer_for_a_reused_id_is_dropped(self):
        transport, resolver = self.setup_world()
        first = self.ask(transport, resolver, "a.ucfsealresearch.net", 7001)
        # Client A's query waits out its timeout and moves on to the
        # second root, freeing its id; client B's query reuses that id
        # against the first root.
        transport.advance(TXID_TIMEOUT)
        (retry,) = transport.sent
        transport.sent.clear()
        resolver._next_id = decode_message(first.payload).header.msg_id
        second = self.ask(transport, resolver, "b.ucfsealresearch.net", 7002)
        assert second.payload[:2] == first.payload[:2]
        assert second.dst_ip == first.dst_ip
        late = _a_answer(decode_message(first.payload), "192.0.2.1")
        assert self.answer(transport, resolver, first.dst_ip, late) == []
        (reply_b,) = self.answer(
            transport, resolver, second.dst_ip,
            _a_answer(decode_message(second.payload), "192.0.2.2"),
        )
        assert reply_b.qname == "b.ucfsealresearch.net"
        assert [record.name for record in reply_b.answers] == [
            "b.ucfsealresearch.net"
        ]
        (reply_a,) = self.answer(
            transport, resolver, retry.dst_ip,
            _a_answer(decode_message(retry.payload), "192.0.2.1"),
        )
        assert reply_a.qname == "a.ucfsealresearch.net"
        assert resolver.pending_count == 0
