"""IncrementalJoin must equal the batch join_flows it now powers."""

import random

import pytest

from repro.dnslib.constants import QueryType
from repro.dnslib.message import make_query, make_response
from repro.dnslib.records import AData, ResourceRecord
from repro.dnslib.wire import encode_message
from repro.dnssrv.auth import QueryLogEntry
from repro.prober.capture import IncrementalJoin, R2Record, join_flows

TRUTH = "10.9.9.9"


def _payload(qname, answer_ip=TRUTH):
    query = make_query(qname, msg_id=3)
    answers = [ResourceRecord(qname, QueryType.A, data=AData(answer_ip))]
    return encode_message(make_response(query, answers=answers, ra=True))


def _corpus(seed=42, flows=30):
    rng = random.Random(seed)
    records, entries = [], []
    groups = {}  # qname -> that qname's records, in capture order
    for index in range(flows):
        qname = f"or{index:03d}.{index:07d}.example.net"
        at = rng.uniform(0.0, 30.0)
        for _ in range(rng.randrange(0, 3)):
            entries.append(
                QueryLogEntry(at, "198.51.100.7", qname, int(QueryType.A), 0)
            )
            at += 0.1
        for _ in range(rng.randrange(0, 3)):
            ip = rng.choice([TRUTH, "203.0.113.9"])
            record = R2Record(at, "198.51.100.7", _payload(qname, ip))
            records.append(record)
            groups.setdefault(qname, []).append(record)
            at += 0.1
    # A couple of packets the join cannot key on a qname.
    records.append(R2Record(31.0, "192.0.2.5", b"\x00\x01"))
    records.append(R2Record(32.0, "192.0.2.6", b""))
    groups["__unjoinable__"] = records[-2:]
    return records, entries, groups


def _batch(records, entries):
    return join_flows(records, query_log=entries)


def _assert_same(left, right):
    assert left.flows == right.flows
    assert sorted(
        (view.src_ip, view.timestamp) for view in left.unjoinable
    ) == sorted((view.src_ip, view.timestamp) for view in right.unjoinable)


class TestIncrementalJoinEquivalence(object):
    def test_interleaved_feed_matches_batch(self):
        records, entries, _ = _corpus()
        expected = _batch(records, entries)
        join = IncrementalJoin()
        # Interleave records and query-log entries in global time order,
        # the way the live event sink would observe them.
        merged = [("r2", record.timestamp, record) for record in records]
        merged += [("q2", entry.timestamp, entry) for entry in entries]
        merged.sort(key=lambda item: item[1])
        for kind, _, item in merged:
            if kind == "r2":
                join.add_record(item)
            else:
                join.add_query(item.timestamp, item.qname)
        _assert_same(join.result(), expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cross_qname_shuffles_match_batch(self, seed):
        # Order across qnames is free; within one qname the capture
        # order must be preserved (last-record-wins), so shuffle groups.
        records, entries, by_qname = _corpus()
        expected = _batch(records, entries)
        groups = list(by_qname.values())
        rng = random.Random(seed)
        rng.shuffle(groups)
        join = IncrementalJoin()
        for entry in entries:
            join.add_query(entry.timestamp, entry.qname)
        for group in groups:
            for record in group:
                join.add_record(record)
        _assert_same(join.result(), expected)

    def test_add_record_returns_the_parsed_view(self):
        join = IncrementalJoin()
        view = join.add_record(
            R2Record(1.0, "198.51.100.7", _payload("a.example.net"))
        )
        assert view.qname == "a.example.net"
        assert join.result().flows["a.example.net"].r2 is view
