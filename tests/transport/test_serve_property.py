"""Property tests: the serving stack never emits bytes the strict
parser rejects, on any backend, for any query in the accepted grammar.

The daemon's wire contract is one invariant stated three ways:

- every payload the authoritative fast path (template codec) renders is
  byte-equal to the slow ``encode_message`` path;
- every payload any profile emits strict-parses with
  :func:`repro.dnslib.wire.decode_message` and re-encodes to the same
  bytes (a true round-trip, not mere acceptance);
- the same holds over a real socket, where the bytes crossed an OS
  boundary first.
"""

import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dnslib.constants import DnsClass, QueryType, Rcode
from repro.dnslib.edns import add_edns
from repro.dnslib.fastwire import build_query_wire
from repro.dnslib.message import (
    DnsFlags,
    DnsHeader,
    DnsMessage,
    Question,
    make_query,
    make_response,
)
from repro.dnslib.records import AData, ResourceRecord, TxtData
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnssrv.auth import AuthoritativeServer
from repro.dnssrv.ratelimit import ClientQueryQuota, ResponseRateLimiter
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.packet import Datagram
from repro.policy.config import build_policy
from repro.policy.engine import PolicyAction, PolicyEngine
from repro.transport.serve import (
    DEFAULT_SLD,
    DnsService,
    ServeConfig,
    build_serve_zone,
    build_world,
)
from repro.transport.sim import SimTransport

_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=20
)
_qname = st.lists(_label, min_size=1, max_size=4).map(".".join)
_msg_id = st.integers(min_value=0, max_value=0xFFFF)
_qtype = st.sampled_from(
    [QueryType.A, QueryType.AAAA, QueryType.TXT, QueryType.NS, QueryType.ANY]
)
#: Sometimes a fixture name (exercising answers), sometimes junk
#: (exercising NXDOMAIN/REFUSED) — the parser must survive them all.
_serve_qname = st.one_of(
    st.sampled_from([f"www.{DEFAULT_SLD}", f"api.{DEFAULT_SLD}"]),
    _qname.map(lambda name: f"{name}.{DEFAULT_SLD}"),
    _qname,
)


def assert_strict_round_trip(payload):
    """The emitted bytes parse strictly and re-encode identically."""
    message = decode_message(payload)
    assert encode_message(message) == payload
    return message


class _SlowOnlyAuth(AuthoritativeServer):
    """Same logic, template fast path disabled (respond is overridden)."""

    def respond(self, query, now):
        return super().respond(query, now)


class TestAuthTemplatePathEqualsSlowPath:
    @settings(max_examples=60, deadline=None)
    @given(qname=_serve_qname, qtype=_qtype, msg_id=_msg_id)
    def test_fast_and_slow_serving_emit_identical_bytes(
        self, qname, qtype, msg_id
    ):
        wire = build_query_wire(qname, qtype=qtype, msg_id=msg_id)
        outputs = []
        for server_cls in (AuthoritativeServer, _SlowOnlyAuth):
            transport = SimTransport()
            server = server_cls("45.76.1.10")
            server.load_zone(build_serve_zone())
            server.attach(transport, 53)
            replies = []
            transport.bind(
                "8.8.4.100", 5555, lambda dg, net: replies.append(dg.payload)
            )
            transport.send(
                Datagram("8.8.4.100", 5555, "45.76.1.10", 53, wire)
            )
            transport.run()
            outputs.append(replies)
        fast, slow = outputs
        assert fast == slow
        for payload in fast:
            assert_strict_round_trip(payload)


class TestSimProfilesEmitStrictWire:
    @settings(max_examples=40, deadline=None)
    @given(
        profile=st.sampled_from(
            ["recursive", "forwarder", "transparent", "dnssec"]
        ),
        qname=_serve_qname,
        qtype=_qtype,
        msg_id=_msg_id,
    )
    def test_every_reply_parses_and_round_trips(
        self, profile, qname, qtype, msg_id
    ):
        transport = SimTransport()
        world = build_world(
            ServeConfig(profile=profile, port=5300), transport, infra_port=53
        )
        replies = []
        transport.bind(
            "8.8.4.100", 5555, lambda dg, net: replies.append(dg.payload)
        )
        endpoint = world.endpoint
        transport.send(
            Datagram(
                "8.8.4.100", 5555, endpoint.ip, endpoint.port,
                build_query_wire(qname, qtype=qtype, msg_id=msg_id),
            )
        )
        transport.run()
        # Timeout-path SERVFAILs are replies too; whatever came back
        # must satisfy the strict round-trip.
        for payload in replies:
            message = assert_strict_round_trip(payload)
            assert message.header.msg_id == msg_id


@pytest.fixture(scope="module")
def live_service():
    service = DnsService(ServeConfig(port=0, drain_grace=0.5))
    endpoint = service.start()
    yield endpoint
    service.stop()


class TestLiveDaemonEmitsStrictWire:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(qname=_serve_qname, msg_id=_msg_id)
    def test_socket_replies_survive_the_strict_parser(
        self, live_service, qname, msg_id
    ):
        client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        client.settimeout(3.0)
        try:
            client.sendto(
                build_query_wire(qname, msg_id=msg_id),
                (live_service.ip, live_service.port),
            )
            payload, _ = client.recvfrom(65535)
        finally:
            client.close()
        message = assert_strict_round_trip(payload)
        assert message.header.msg_id == msg_id
        assert message.header.flags.ra


# -- the recursive front against a codec oracle ------------------------------

RESOLVER_IP = "127.0.0.1"
ROOT_IP = "127.77.0.1"
CLIENTS = ("198.51.100.1", "198.51.100.2")
BLOCKED = f"blocked.{DEFAULT_SLD}"
SINKHOLED = f"evil.{DEFAULT_SLD}"

#: The primed positive cache: (qname, qtype) -> rrset.
PRIMED = {
    (f"www.{DEFAULT_SLD}", QueryType.A): [
        ResourceRecord(f"www.{DEFAULT_SLD}", QueryType.A, data=AData("203.0.113.80"))
    ],
    (f"api.{DEFAULT_SLD}", QueryType.A): [
        ResourceRecord(f"api.{DEFAULT_SLD}", QueryType.A, data=AData("203.0.113.81"))
    ],
    (f"www.{DEFAULT_SLD}", QueryType.TXT): [
        ResourceRecord(f"www.{DEFAULT_SLD}", QueryType.TXT, data=TxtData(("hit",)))
    ],
}


def _defenses(rrl, quota, policy):
    """Fresh RRL, quota and policy objects (one set per side)."""
    return (
        ResponseRateLimiter(rate_per_second=4.0, burst=3.0) if rrl else None,
        ClientQueryQuota(queries_per_second=4.0, burst=5.0) if quota else None,
        PolicyEngine(build_policy(
            block=(BLOCKED, f"{CLIENTS[1]}/32"), sinkhole=(SINKHOLED,),
        )) if policy else None,
    )


class _CaptureTransport:
    """A frozen-clock transport that records every datagram sent."""

    def __init__(self):
        self.now = 0.0
        self.sent = []

    def bind(self, ip, port, handler):
        return None

    def send(self, datagram, origin=None):
        self.sent.append((datagram.dst_ip, datagram.dst_port, datagram.payload))

    def schedule(self, delay, callback):
        return _NoTimer()


class _NoTimer:
    def cancel(self):
        pass


class _CodecOracle:
    """What the recursive front must send, rebuilt from the object codec.

    Written from ``decode_message``/``make_response``/``encode_message``
    and the serving rules (FORMERR, CHAOS ``version.bind``, policy,
    quota, positive cache, upstream query to the root, RRL on every
    reply but the CHAOS one); it never runs the resolver's own code.
    """

    def __init__(self, rrl, quota, policy):
        self.rrl, self.quota, self.policy = _defenses(rrl, quota, policy)
        self.next_id = 1

    def sends(self, client, now):
        try:
            query = decode_message(client.payload)
        except DnsWireError:
            return []
        if not query.questions:
            return self._reply(client, make_response(query, rcode=Rcode.FORMERR), now)
        question = query.questions[0]
        if (
            question.qname == "version.bind"
            and question.qclass == DnsClass.CH
            and question.qtype in (QueryType.TXT, QueryType.ANY)
        ):
            refused = make_response(query, rcode=Rcode.REFUSED, ra=False)
            return [(client.src_ip, client.src_port, encode_message(refused))]
        if self.policy is not None:
            action = self.policy.evaluate_query(client.src_ip, question.qname).action
            if action is PolicyAction.REFUSE:
                return self._reply(client, make_response(query, rcode=Rcode.REFUSED), now)
            if action is PolicyAction.NXDOMAIN:
                return self._reply(client, make_response(query, rcode=Rcode.NXDOMAIN), now)
            if action is PolicyAction.SINKHOLE:
                sinkhole = self.policy.sinkhole_answer(question.qname)
                return self._reply(client, make_response(query, answers=[sinkhole]), now)
        if self.quota is not None and not self.quota.allow(client.src_ip, now):
            return self._reply(client, make_response(query, rcode=Rcode.REFUSED), now)
        rrset = PRIMED.get((question.qname, int(question.qtype)))
        if rrset is not None:
            return self._reply(client, make_response(query, answers=rrset), now)
        upstream = make_query(
            question.qname, qtype=int(question.qtype), msg_id=self.next_id,
            recursion_desired=False,
        )
        self.next_id += 1
        return [(ROOT_IP, 53, encode_message(upstream))]

    def _reply(self, client, response, now):
        if self.policy is not None:
            response = self.policy.rewrite_response(response)
        if self.rrl is not None and not self.rrl.allow(client.src_ip, now):
            return []
        return [(client.src_ip, client.src_port, encode_message(response))]


_oracle_name = st.sampled_from([
    f"www.{DEFAULT_SLD}", f"api.{DEFAULT_SLD}", f"miss.{DEFAULT_SLD}",
    BLOCKED, f"x.{BLOCKED}", SINKHOLED, "version.bind",
])


@st.composite
def _client_query(draw):
    """One client query. Two thirds are plain (one question for a
    primed or missing name or CHAOS ``version.bind``, opcode QUERY, no
    EDNS, lower case: the shapes the strict parser accepts); the rest
    vary opcode, qtype, class, case, EDNS and question count, and are
    sometimes cut short into junk. The RD/CD/AD bits vary on both."""
    flags = DnsFlags(rd=draw(st.booleans()), cd=draw(st.booleans()),
                     ad=draw(st.booleans()))
    if draw(st.integers(0, 2)):
        question = draw(st.sampled_from(
            [Question(qname, qtype) for qname, qtype in sorted(PRIMED)]
            + [Question(f"miss.{DEFAULT_SLD}", QueryType.A),
               Question("version.bind", QueryType.TXT, DnsClass.CH)]
        ))
        message = DnsMessage(header=DnsHeader(flags=flags), questions=[question])
        return encode_message(message)
    questions = [
        Question(
            draw(_oracle_name),
            draw(st.sampled_from(
                [QueryType.A, QueryType.AAAA, QueryType.TXT, QueryType.ANY]
            )),
            draw(st.sampled_from([DnsClass.IN, DnsClass.IN, DnsClass.CH])),
        )
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2])))
    ]
    message = DnsMessage(
        header=DnsHeader(
            flags=flags, opcode=draw(st.sampled_from([0, 0, 0, 1, 2, 4]))
        ),
        questions=questions,
    )
    if draw(st.integers(0, 3)) == 0:
        add_edns(message)
    wire = encode_message(message)
    if questions and draw(st.booleans()):
        # Upper-case the first label: the codec folds case, the strict
        # parser refuses it.
        end = 13 + wire[12]
        wire = wire[:13] + wire[13:end].upper() + wire[end:]
    if draw(st.integers(0, 7)) == 0:
        wire = wire[:draw(st.integers(0, len(wire) - 1))]
    return wire


@st.composite
def _query_stream(draw):
    """Repeats drawn from a small pool, so the same shapes come back
    with fresh ids, clients and clock steps."""
    pool = draw(st.lists(_client_query(), min_size=1, max_size=6))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, len(pool) - 1),
            _msg_id,
            st.sampled_from(CLIENTS),
            st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]),
        ),
        min_size=1, max_size=30,
    ))
    stream = []
    for index, msg_id, client_ip, step in steps:
        wire = pool[index]
        if len(wire) >= 2:
            wire = msg_id.to_bytes(2, "big") + wire[2:]
        stream.append((client_ip, step, wire))
    return stream


class TestRecursiveFrontEqualsCodecOracle:
    """Every byte string the recursive front sends, cache-hit fast path
    included, equals the codec oracle's — with each defense on and off."""

    @pytest.mark.parametrize("rrl", [False, True])
    @pytest.mark.parametrize("quota", [False, True])
    @pytest.mark.parametrize("policy", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(stream=_query_stream())
    def test_sent_bytes_equal_the_oracle(self, rrl, quota, policy, stream):
        transport = _CaptureTransport()
        rate_limiter, query_quota, engine = _defenses(rrl, quota, policy)
        resolver = RecursiveResolver(
            RESOLVER_IP, [ROOT_IP], rate_limiter=rate_limiter,
            query_quota=query_quota, policy=engine,
        )
        resolver.attach(transport)
        for (qname, qtype), rrset in PRIMED.items():
            resolver.cache.put(qname, qtype, rrset, transport.now)
        oracle = _CodecOracle(rrl, quota, policy)
        for client_ip, step, wire in stream:
            transport.now += step
            client = Datagram(client_ip, 5353, RESOLVER_IP, 53, wire)
            resolver.handle_client(client, transport)
            assert transport.sent == oracle.sends(client, transport.now)
            transport.sent.clear()
