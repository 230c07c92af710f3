"""Behavior spec and host tests."""

import pytest

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.message import make_query, make_response
from repro.dnslib.records import AData, ResourceRecord
from repro.dnslib.wire import DnsWireError, decode_message, encode_message
from repro.dnslib.zone import parse_master_file
from repro.dnssrv.hierarchy import build_hierarchy
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.resolvers.host import HOST_UPSTREAM_PORT, BehaviorHost
from repro.netsim.network import Network
from repro.netsim.packet import Datagram
from repro.threatintel.cymon import ThreatCategory

ZONE_TEXT = """\
$ORIGIN ucfsealresearch.net.
$TTL 300
@ IN SOA ns1 hostmaster 1 2 3 4 5
or000.0000000 IN A 45.76.1.10
"""

HOST_IP = "77.88.99.1"
PROBER_IP = "132.170.1.1"
QNAME = "or000.0000000.ucfsealresearch.net"


def make_spec(**overrides):
    base = dict(
        name="test",
        mode=ResponseMode.FABRICATE,
        ra=False,
        aa=False,
        rcode=Rcode.NOERROR,
        answer_kind=AnswerKind.NONE,
    )
    base.update(overrides)
    return BehaviorSpec(**base)


class TestSpecValidation:
    def test_correct_requires_resolve(self):
        with pytest.raises(ValueError):
            make_spec(answer_kind=AnswerKind.CORRECT)

    def test_incorrect_requires_destination(self):
        with pytest.raises(ValueError):
            make_spec(answer_kind=AnswerKind.INCORRECT_IP)

    def test_malicious_requires_ip_answer(self):
        with pytest.raises(ValueError):
            make_spec(
                answer_kind=AnswerKind.INCORRECT_URL,
                fixed_answer="evil.example",
                malicious_category=ThreatCategory.MALWARE,
            )

    def test_contacts_auth(self):
        resolve = make_spec(mode=ResponseMode.RESOLVE, answer_kind=AnswerKind.CORRECT)
        assert resolve.contacts_auth
        assert not make_spec().contacts_auth

    def test_describe(self):
        spec = make_spec(
            answer_kind=AnswerKind.INCORRECT_IP, fixed_answer="6.6.6.6", ra=True
        )
        text = spec.describe()
        assert "RA=1" in text
        assert "6.6.6.6" in text


def probe(spec, run=True):
    """Send one probe to a host with ``spec``; return (network, responses, auth)."""
    network = Network()
    hierarchy = build_hierarchy(network)
    hierarchy.auth.load_zone(parse_master_file(ZONE_TEXT))
    host = BehaviorHost(HOST_IP, spec, hierarchy.auth.ip)
    host.attach(network)
    raw = []
    network.bind(PROBER_IP, 40000, lambda dg, net: raw.append(dg))
    query = make_query(QNAME, msg_id=99)
    network.send(Datagram(PROBER_IP, 40000, HOST_IP, 53, encode_message(query)))
    if run:
        network.run()
    return network, raw, hierarchy.auth


class TestFabricatingHost:
    def test_blank_refused(self):
        spec = make_spec(rcode=Rcode.REFUSED)
        _, raw, auth = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.rcode == Rcode.REFUSED
        assert response.answers == []
        assert not response.header.flags.ra
        assert auth.query_log == []  # no Q2 for fabricators

    def test_flags_follow_spec(self):
        spec = make_spec(ra=True, aa=True)
        _, raw, _ = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.header.flags.ra
        assert response.header.flags.aa
        assert response.header.msg_id == 99

    def test_wrong_ip_answer(self):
        spec = make_spec(
            answer_kind=AnswerKind.INCORRECT_IP, fixed_answer="208.91.197.91", ra=True
        )
        _, raw, _ = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.first_a_record().data.address == "208.91.197.91"
        assert response.qname == QNAME

    def test_url_answer_is_cname(self):
        spec = make_spec(
            answer_kind=AnswerKind.INCORRECT_URL, fixed_answer="u.dcoin.co"
        )
        _, raw, _ = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.answers[0].rtype == QueryType.CNAME
        assert response.answers[0].data.cname == "u.dcoin.co"

    def test_string_answer_is_txt(self):
        spec = make_spec(
            answer_kind=AnswerKind.INCORRECT_STRING, fixed_answer="wild"
        )
        _, raw, _ = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.answers[0].rtype == QueryType.TXT
        assert response.answers[0].data.strings == ("wild",)

    def test_empty_question_response(self):
        spec = make_spec(empty_question=True, rcode=Rcode.SERVFAIL, ra=True)
        _, raw, _ = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.questions == []
        assert response.rcode == Rcode.SERVFAIL

    def test_malformed_answer_header_still_parses(self):
        spec = make_spec(answer_kind=AnswerKind.MALFORMED, fixed_answer="blob")
        _, raw, _ = probe(spec)
        payload = raw[0].payload
        with pytest.raises(DnsWireError):
            decode_message(payload)
        # Header fields remain readable, as with the paper's libpcap parser.
        flags_word = int.from_bytes(payload[2:4], "big")
        assert flags_word >> 15  # QR=1

    def test_garbage_query_ignored(self):
        network = Network()
        host = BehaviorHost(HOST_IP, make_spec(), "45.76.1.10")
        host.attach(network)
        network.send(Datagram(PROBER_IP, 40000, HOST_IP, 53, b"junk"))
        network.run()
        assert host.queries_received == 0


class TestResolvingHost:
    def test_correct_answer_comes_from_auth(self):
        spec = make_spec(
            mode=ResponseMode.RESOLVE, answer_kind=AnswerKind.CORRECT, ra=True
        )
        _, raw, auth = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.first_a_record().data.address == "45.76.1.10"
        assert response.header.flags.ra
        assert len(auth.query_log) == 1
        assert auth.query_log[0].src_ip == HOST_IP
        assert auth.query_log[0].qname == QNAME

    def test_stealth_resolver_hides_ra(self):
        # RA=0 yet correct answer: the paper's 3,994-host 2018 class.
        spec = make_spec(
            mode=ResponseMode.RESOLVE, answer_kind=AnswerKind.CORRECT, ra=False
        )
        _, raw, _ = probe(spec)
        response = decode_message(raw[0].payload)
        assert not response.header.flags.ra
        assert response.first_a_record() is not None

    def test_extra_q2_ghost_queries(self):
        spec = make_spec(
            mode=ResponseMode.RESOLVE, answer_kind=AnswerKind.CORRECT, ra=True,
            extra_q2=3,
        )
        _, raw, auth = probe(spec)
        assert len(auth.query_log) == 4  # 1 real + 3 ghosts
        assert len(raw) == 1             # but exactly one R2

    def test_rcode_override_with_correct_answer(self):
        # The paper's answer+ServFail anomaly class.
        spec = make_spec(
            mode=ResponseMode.RESOLVE, answer_kind=AnswerKind.CORRECT, ra=True,
            rcode=Rcode.SERVFAIL,
        )
        _, raw, _ = probe(spec)
        response = decode_message(raw[0].payload)
        assert response.rcode == Rcode.SERVFAIL
        assert response.first_a_record() is not None


class TestUpstreamAnswerMatching:
    """An upstream answer completes a probe only when it comes from the
    server the probe asked and echoes the probe's question; the id
    alone proves nothing. ``aa=True`` answers take the single-A fast
    path, ``aa=False`` ones the full decode."""

    AUTH = "45.76.1.99"

    def _in_flight(self):
        """A resolving host whose one probe waits on a silent auth."""
        network = Network()
        spec = make_spec(
            mode=ResponseMode.RESOLVE, answer_kind=AnswerKind.CORRECT, ra=True
        )
        host = BehaviorHost(HOST_IP, spec, self.AUTH)
        host.attach(network)
        asked = []
        network.bind(self.AUTH, 53, lambda dg, net: asked.append(dg))
        replies = []
        network.bind(PROBER_IP, 40000, lambda dg, net: replies.append(dg))
        query = make_query(QNAME, msg_id=77)
        network.send(
            Datagram(PROBER_IP, 40000, HOST_IP, 53, encode_message(query))
        )
        network.run()
        assert len(asked) == 1 and host.pending_count == 1
        return network, host, decode_message(asked[0].payload), replies

    def _answer(self, network, src_ip, question, address, aa):
        answer = make_response(
            question,
            answers=[ResourceRecord(question.qname, QueryType.A, 1, 300,
                                    AData(address))],
            aa=aa, ra=False,
        )
        network.send(Datagram(
            src_ip, 53, HOST_IP, HOST_UPSTREAM_PORT, encode_message(answer)
        ))
        network.run()

    @pytest.mark.parametrize("aa", [True, False], ids=["fast", "decoded"])
    def test_answer_from_another_source_is_dropped(self, aa):
        network, host, upstream, replies = self._in_flight()
        self._answer(network, "6.6.6.6", upstream, "6.6.6.6", aa)
        assert replies == []
        assert host.pending_count == 1
        self._answer(network, self.AUTH, upstream, "45.76.1.10", aa)
        assert len(replies) == 1
        response = decode_message(replies[0].payload)
        assert response.header.msg_id == 77
        assert response.first_a_record().data.address == "45.76.1.10"
        assert host.pending_count == 0

    @pytest.mark.parametrize("aa", [True, False], ids=["fast", "decoded"])
    def test_answer_with_another_question_is_dropped(self, aa):
        network, host, upstream, replies = self._in_flight()
        other = make_query(
            "or000.0000001.ucfsealresearch.net",
            msg_id=upstream.header.msg_id, recursion_desired=False,
        )
        self._answer(network, self.AUTH, other, "6.6.6.6", aa)
        assert replies == []
        assert host.pending_count == 1
        self._answer(network, self.AUTH, upstream, "45.76.1.10", aa)
        assert len(replies) == 1
        response = decode_message(replies[0].payload)
        assert response.qname == QNAME
        assert response.first_a_record().data.address == "45.76.1.10"
        assert host.pending_count == 0
