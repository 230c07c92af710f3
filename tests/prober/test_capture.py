"""Tolerant R2 parsing tests (the libpcap-equivalent pipeline)."""

import pytest

from repro.dnslib.constants import QueryType, Rcode
from repro.dnslib.message import DnsFlags, DnsHeader, DnsMessage, Question, make_query, make_response
from repro.dnslib.records import AData, CnameData, RawData, ResourceRecord, TxtData
from repro.dnslib.wire import encode_message
from repro.prober.capture import (
    FORM_IP,
    FORM_MALFORMED,
    FORM_OTHER,
    FORM_STRING,
    FORM_URL,
    R2Record,
    join_flows,
    parse_r2,
)

QNAME = "or000.0000001.ucfsealresearch.net"


def record_for(message) -> R2Record:
    return R2Record(1.0, "9.9.9.9", encode_message(message))


class TestParseR2:
    def test_clean_answer(self):
        query = make_query(QNAME, msg_id=5)
        response = make_response(
            query,
            answers=[ResourceRecord(QNAME, QueryType.A, data=AData("1.2.3.4"))],
            ra=True,
        )
        view = parse_r2(record_for(response))
        assert view.qname == QNAME
        assert view.ra and not view.aa
        assert view.answers == [(FORM_IP, "1.2.3.4")]
        assert view.has_answer
        assert not view.malformed_answer

    def test_answer_form_classification(self):
        query = make_query(QNAME)
        response = make_response(
            query,
            answers=[
                ResourceRecord(QNAME, QueryType.CNAME, data=CnameData("u.dcoin.co")),
                ResourceRecord(QNAME, QueryType.TXT, data=TxtData(("wild",))),
                ResourceRecord(QNAME, 99, data=RawData(99, b"\x01")),
            ],
        )
        view = parse_r2(record_for(response))
        forms = [form for form, _ in view.answers]
        assert forms == [FORM_URL, FORM_STRING, FORM_OTHER]

    def test_opt_record_not_an_answer(self):
        from repro.dnslib.edns import add_edns

        query = make_query(QNAME)
        response = make_response(query, ra=True)
        add_edns(response)
        # Move the OPT into the answer section to simulate a weird host.
        response.answers.extend(response.additionals)
        response.additionals.clear()
        view = parse_r2(record_for(response))
        assert view.answers == []

    def test_empty_question(self):
        query = make_query(QNAME)
        response = make_response(query, rcode=Rcode.SERVFAIL, copy_question=False)
        view = parse_r2(record_for(response))
        assert view.qname is None
        assert not view.has_question
        assert view.rcode == Rcode.SERVFAIL

    def test_malformed_answer_keeps_header(self):
        # ANCOUNT=1 but truncated RDATA: header/question still parse.
        query = make_query(QNAME, msg_id=3)
        response = make_response(query, ra=True, aa=True)
        wire = bytearray(encode_message(response))
        wire[6:8] = (1).to_bytes(2, "big")
        wire += b"\xc0\x0c\x00\x01\x00\x01\x00\x00\x01\x2c\x00\x04\x00"
        view = parse_r2(R2Record(0.0, "9.9.9.9", bytes(wire)))
        assert view.malformed_answer
        assert view.has_answer
        assert view.ra and view.aa
        assert view.qname == QNAME
        assert view.answer_forms() == {FORM_MALFORMED}

    def test_tiny_garbage_payload(self):
        view = parse_r2(R2Record(0.0, "9.9.9.9", b"\x01\x02"))
        assert not view.decodable
        assert view.qname is None

    def test_header_only_garbage(self):
        # 12 valid header bytes claiming QR=1 + 1 question, then junk.
        header = DnsFlags(qr=True, ra=True).to_int(0, 0)
        payload = (7).to_bytes(2, "big") + header.to_bytes(2, "big")
        payload += (1).to_bytes(2, "big") + b"\x00" * 6 + b"\xff\xff"
        view = parse_r2(R2Record(0.0, "9.9.9.9", payload))
        assert view.ra
        assert view.qname is None


class TestJoinFlows:
    def test_views_exclude_unjoinable(self):
        query = make_query(QNAME)
        joined = record_for(make_response(query))
        unjoined = record_for(make_response(query, copy_question=False))
        flow_set = join_flows([joined, unjoined])
        assert len(flow_set.views) == 1
        assert len(flow_set.unjoinable) == 1
        assert flow_set.r2_count == 2
        assert flow_set.all_views and len(flow_set.all_views) == 2

    def test_join_without_auth(self):
        query = make_query(QNAME)
        flow_set = join_flows([record_for(make_response(query))])
        assert flow_set.q2_count == 0
        assert flow_set.flows[QNAME].r2 is not None


class TestShardMerges:
    """Edge cases the crash-recovery path feeds the merge functions."""

    def _capture(self, q1_sent=0, records=(), start=0.0, end=0.0,
                 sent_log=None, **extra):
        from repro.prober.probe import ProbeCapture
        from repro.prober.subdomain import ClusterStats

        return ProbeCapture(
            q1_sent=q1_sent, q1_bytes=q1_sent * 75,
            r2_records=list(records), start_time=start, end_time=end,
            cluster_stats=ClusterStats(),
            sent_log=dict(sent_log or {}), **extra,
        )

    def test_merge_zero_captures_rejected(self):
        from repro.prober.probe import merge_captures

        with pytest.raises(ValueError, match="zero captures"):
            merge_captures([])

    def test_merge_single_capture_is_identity(self):
        from repro.prober.probe import merge_captures

        capture = self._capture(q1_sent=3, end=2.0)
        assert merge_captures([capture]) is capture

    def test_zero_probe_capture_merges_additively(self):
        # A degraded campaign can produce an idle shard (all probes
        # blackholed) — folding it in must not perturb the totals.
        from repro.prober.probe import merge_captures

        idle = self._capture(start=1.0, end=1.0)
        busy = self._capture(
            q1_sent=5, records=[record_for(make_response(make_query(QNAME)))],
            start=0.0, end=10.0, sent_log={QNAME: "9.9.9.9"},
            retries_sent=2, retry_bytes=150, retries_exhausted=1,
        )
        merged = merge_captures([idle, busy])
        assert merged.q1_sent == 5
        assert merged.r2_count == 1
        assert merged.start_time == 0.0 and merged.end_time == 10.0
        assert merged.retries_sent == 2
        assert merged.retries_exhausted == 1
        assert merged.sent_log == busy.sent_log

    def test_merge_flow_sets_of_nothing_is_empty(self):
        from repro.prober.capture import merge_flow_sets

        merged = merge_flow_sets([])
        assert merged.flows == {}
        assert merged.unjoinable == []
        assert merged.all_views == []

    def test_merge_flow_sets_missing_shard_subset(self):
        # Resume/degraded merges fold however many shards survived;
        # any subset must merge cleanly and keep its flows intact.
        from repro.prober.capture import merge_flow_sets

        other_qname = QNAME.replace("0000001", "0000002")
        first = join_flows([record_for(make_response(make_query(QNAME)))])
        second = join_flows(
            [record_for(make_response(make_query(other_qname)))]
        )
        assert sorted(merge_flow_sets([first, second]).flows) == sorted(
            [QNAME, other_qname]
        )
        assert sorted(merge_flow_sets([first]).flows) == [QNAME]
