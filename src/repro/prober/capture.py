"""Captured R2 parsing and Q1/Q2/R1/R2 flow joining (Fig 2).

The prober stores raw R2 payloads; :func:`parse_r2` decodes them the
way the paper's libpcap pipeline did — *tolerantly*: if the answer
section is garbage, the header flags and the question are still
recovered and the packet is marked malformed (the paper's 8,764
"not decoded appropriately" packets). :func:`join_flows` then groups
Q1, Q2, R1 and R2 per probe using the qname, the paper's join key.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

from repro.dnslib.buffer import DnsWireError, WireReader
from repro.dnslib.constants import QueryType
from repro.dnslib.message import DnsFlags
from repro.dnslib.wire import decode_message
from repro.dnssrv.auth import QueryLogEntry

#: Answer-form labels used by the Table VII classification.
FORM_IP = "ip"
FORM_URL = "url"
FORM_STRING = "string"
FORM_MALFORMED = "na"
FORM_OTHER = "other"


@dataclasses.dataclass(frozen=True)
class R2Record:
    """One raw captured response at the prober."""

    timestamp: float
    src_ip: str
    payload: bytes


@dataclasses.dataclass
class R2View:
    """A decoded (possibly partially) view of one R2 packet."""

    timestamp: float
    src_ip: str
    ra: bool
    aa: bool
    rcode: int
    has_question: bool
    qname: str | None
    answers: list[tuple[str, str]]          # (form, value)
    malformed_answer: bool = False
    decodable: bool = True

    @property
    def has_answer(self) -> bool:
        return bool(self.answers) or self.malformed_answer

    def answer_forms(self) -> set[str]:
        if self.malformed_answer:
            return {FORM_MALFORMED}
        return {form for form, _ in self.answers}

    def first_answer(self) -> tuple[str, str] | None:
        if self.malformed_answer:
            return (FORM_MALFORMED, "")
        return self.answers[0] if self.answers else None


def _classify_answer(record) -> tuple[str, str] | None:
    if record.rtype == QueryType.A:
        return FORM_IP, record.data.address
    if record.rtype == QueryType.CNAME:
        return FORM_URL, record.data.cname
    if record.rtype == QueryType.TXT:
        return FORM_STRING, " ".join(record.data.strings)
    if record.rtype == QueryType.OPT:
        return None
    return FORM_OTHER, record.to_text()


def parse_r2(record: R2Record) -> R2View:
    """Tolerantly decode a captured response."""
    try:
        message = decode_message(record.payload)
    except DnsWireError:
        return _parse_partial(record)
    answers = []
    for answer in message.answers:
        classified = _classify_answer(answer)
        if classified is not None:
            answers.append(classified)
    return R2View(
        timestamp=record.timestamp,
        src_ip=record.src_ip,
        ra=message.header.flags.ra,
        aa=message.header.flags.aa,
        rcode=int(message.header.rcode),
        has_question=bool(message.questions),
        qname=message.qname,
        answers=answers,
    )


def _parse_partial(record: R2Record) -> R2View:
    """Header/question-only parse for packets with undecodable answers."""
    payload = record.payload
    if len(payload) < 12:
        return R2View(
            timestamp=record.timestamp, src_ip=record.src_ip,
            ra=False, aa=False, rcode=0, has_question=False, qname=None,
            answers=[], malformed_answer=True, decodable=False,
        )
    flags_word = int.from_bytes(payload[2:4], "big")
    flags, _, rcode = DnsFlags.from_int(flags_word)
    qdcount = int.from_bytes(payload[4:6], "big")
    ancount = int.from_bytes(payload[6:8], "big")
    qname = None
    if qdcount:
        try:
            reader = WireReader(payload, 12)
            qname = reader.read_name()
        except DnsWireError:
            qname = None
    return R2View(
        timestamp=record.timestamp,
        src_ip=record.src_ip,
        ra=flags.ra,
        aa=flags.aa,
        rcode=rcode,
        has_question=qname is not None,
        qname=qname,
        answers=[],
        malformed_answer=ancount > 0,
    )


@dataclasses.dataclass
class ProbeFlow:
    """The joined Q1/Q2/R1/R2 record for one probed target."""

    qname: str
    r2: R2View | None = None
    q2_timestamps: list[float] = dataclasses.field(default_factory=list)
    r1_count: int = 0

    @property
    def q2_count(self) -> int:
        return len(self.q2_timestamps)

    @property
    def resolved_via_auth(self) -> bool:
        return self.q2_count > 0


@dataclasses.dataclass
class FlowSet:
    """All joined flows plus the responses that could not be joined.

    Iteration products are *order-independent*: ``views`` sorts on the
    qname join key, never on arrival order, so any permutation of the
    captured packets — or any merge of per-shard captures — yields the
    same analysis tables byte for byte.
    """

    flows: dict[str, ProbeFlow]
    unjoinable: list[R2View]  # empty-question responses (section IV-B4)

    @property
    def views(self) -> list[R2View]:
        """Every parsed R2 with a question (the Tables III-VI universe).

        Sorted by qname so downstream analyzers see a capture-order- and
        shard-independent sequence.
        """
        responded = [flow for flow in self.flows.values() if flow.r2 is not None]
        responded.sort(key=lambda flow: flow.qname)  # qnames are unique keys
        return [flow.r2 for flow in responded]

    @property
    def all_views(self) -> list[R2View]:
        return self.views + self.unjoinable

    @property
    def r2_count(self) -> int:
        return len(self.views) + len(self.unjoinable)

    @property
    def q2_count(self) -> int:
        return sum(flow.q2_count for flow in self.flows.values())

    @property
    def r1_count(self) -> int:
        return sum(flow.r1_count for flow in self.flows.values())

    def flows_with_r2(self) -> list[ProbeFlow]:
        return [flow for flow in self.flows.values() if flow.r2 is not None]


class IncrementalJoin:
    """The qname join, one packet at a time.

    Equivalent to :func:`join_flows` (which now delegates here), but
    consumable incrementally — records and query-log entries may arrive
    in any interleaving, as they do when a network event sink feeds the
    join during a live scan. Within one qname, R2 records must arrive
    in capture order for the last-record-wins rule to match the batch
    join; across qnames, order is free.
    """

    def __init__(self) -> None:
        self._flows: dict[str, ProbeFlow] = {}
        self._unjoinable: list[R2View] = []

    def add_record(self, record: R2Record) -> R2View:
        """Parse and join one captured response; returns its view."""
        view = parse_r2(record)
        self.add_view(view)
        return view

    def add_view(self, view: R2View) -> None:
        if view.qname is None:
            self._unjoinable.append(view)
            return
        flow = self._flows.setdefault(view.qname, ProbeFlow(view.qname))
        flow.r2 = view

    def add_query(self, timestamp: float, qname: str) -> None:
        """Join one auth-side query-log entry (one Q2 plus one R1)."""
        flow = self._flows.setdefault(qname, ProbeFlow(qname))
        flow.q2_timestamps.append(timestamp)
        flow.r1_count += 1  # the auth server answers every logged query

    def result(self) -> FlowSet:
        return FlowSet(flows=self._flows, unjoinable=self._unjoinable)


def join_flows(
    r2_records: list[R2Record],
    query_log: Iterable[QueryLogEntry] = (),
) -> FlowSet:
    """Join captured packets and auth query-log entries into per-probe
    flows on the qname key."""
    join = IncrementalJoin()
    for record in r2_records:
        join.add_record(record)
    for entry in query_log:
        join.add_query(entry.timestamp, entry.qname)
    return join.result()


def _unjoinable_sort_key(view: R2View) -> tuple:
    """A content-based (never arrival-based) order for unjoinable views."""
    return (view.src_ip, view.timestamp, view.rcode, view.ra, view.aa)


def merge_flow_sets(flow_sets: list[FlowSet]) -> FlowSet:
    """Merge per-shard flow sets into one campaign-wide :class:`FlowSet`.

    Shards allocate qnames from disjoint cluster-namespace slices, so
    the flow dicts union without collisions (guarded, since a collision
    would silently drop a probe's flow); the unjoinable views are
    re-sorted on content so the merged set is independent of shard
    completion order.
    """
    if len(flow_sets) == 1:
        return flow_sets[0]
    flows: dict[str, ProbeFlow] = {}
    unjoinable: list[R2View] = []
    for flow_set in flow_sets:
        if flows.keys() & flow_set.flows.keys():
            raise ValueError("flow sets overlap: shards shared a qname")
        flows.update(flow_set.flows)
        unjoinable.extend(flow_set.unjoinable)
    unjoinable.sort(key=_unjoinable_sort_key)
    return FlowSet(flows=flows, unjoinable=unjoinable)
