"""Single-threaded UDP DNS load generator (standard library only).

One thread drives two connected UDP sockets, alternating queries
between them, so the generator plus the daemon under test make two busy
processes — one per core on the two-core reference host. Nothing here
imports ``repro``: the expected answers are written out below, so a
change to the program's fixture cannot also change the oracle.

Two kinds of phase:

- :meth:`LoadGenerator.run_open_loop` sends on a fixed schedule (query ``i`` is due at
  ``t0 + i / rate``) whether or not earlier replies arrived, the way
  independent clients behave. Latency is measured from when a query was
  *due*, so a stall in the daemon also charges the queries queued behind
  it; how late the generator itself sent is recorded separately.
- :meth:`LoadGenerator.run_saturation` keeps a fixed number of queries in flight and
  sends the next one as each reply lands; its answered-per-second is the
  daemon's capacity.

Every reply is checked (transaction id, echoed question, rcode, answer
address). A query unanswered after :data:`LOSS_TIMEOUT_S` counts as lost.
"""

from __future__ import annotations

import dataclasses
import random
import select
import socket
import statistics
import struct
import time
from typing import Callable

#: The recursive profile's fixture zone, written out independently of
#: ``repro.transport.serve``: (label, IPv4 address).
SLD = "ucfsealresearch.net"
FIXTURES = (
    ("www", "203.0.113.80"),
    ("api", "203.0.113.81"),
    ("mail", "203.0.113.82"),
)
#: Zipf-like popularity over the three fixture names.
FIXTURE_WEIGHTS = (0.55, 0.27, 0.18)

RCODE_NOERROR = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

#: Flags word of a standard query with RD set; QDCOUNT=1, no other records.
_QUERY_HEADER_TAIL = struct.pack("!HHHHH", 0x0100, 1, 0, 0, 0)

#: Reply outcome classes. ``ok`` is the only success.
OK, SERVFAIL, WRONG = "ok", "servfail", "wrong"

#: Seconds per slice when a phase's rate is taken as a median of slices.
RATE_WINDOW = 0.5

#: Seconds before an unanswered query counts as lost: longer than the
#: daemon's 2 s upstream timeout, so a failed resolution is seen as
#: SERVFAIL, not as loss.
LOSS_TIMEOUT_S = 3.0


def encode_question(name: str) -> bytes:
    """Wire form of one A/IN question: length-prefixed labels, type, class."""
    wire = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        wire.append(len(raw))
        wire += raw
    wire.append(0)
    wire += struct.pack("!HH", 1, 1)
    return bytes(wire)


def query_wire(txid: int, question: bytes) -> bytes:
    """A standard recursive query carrying one encoded question."""
    return struct.pack("!H", txid) + _QUERY_HEADER_TAIL + question


class QueryMix:
    """A seeded, endless sequence of (question wire, expected answer).

    ``miss_share`` of the queries are unique random labels under the
    SLD (expected NXDOMAIN, ``None``); the rest are fixture names drawn
    by :data:`FIXTURE_WEIGHTS` (expected the fixture's A address as 4
    bytes). The same seed yields the same sequence.
    """

    def __init__(self, seed, miss_share: float = 0.0) -> None:
        self._rng = random.Random(seed)
        self.miss_share = miss_share
        self._fixtures = [
            (encode_question(f"{label}.{SLD}"), socket.inet_aton(address))
            for label, address in FIXTURES
        ]
        self._cum_weights = [
            sum(FIXTURE_WEIGHTS[: index + 1])
            for index in range(len(FIXTURE_WEIGHTS))
        ]
        self._counter = 0

    def next(self) -> tuple[bytes, bytes | None]:
        rng = self._rng
        if self.miss_share and rng.random() < self.miss_share:
            self._counter += 1
            label = f"m{self._counter:x}-{rng.getrandbits(40):010x}"
            return encode_question(f"{label}.{SLD}"), None
        return rng.choices(self._fixtures, cum_weights=self._cum_weights)[0]


def check_dns_reply(query: bytes, reply: bytes, expected: bytes | None) -> str:
    """Classify a DNS reply to ``query`` (same transaction id assumed).

    ``expected`` is the fixture's A address, or ``None`` for a name that
    must not exist. The question must be echoed byte for byte.
    """
    question_end = len(query)
    if (
        len(reply) < question_end
        or not reply[2] & 0x80  # QR: must be a response
        or reply[4:6] != b"\x00\x01"
        or reply[12:question_end] != query[12:]
    ):
        return WRONG
    rcode = reply[3] & 0x0F
    if rcode == RCODE_SERVFAIL:
        return SERVFAIL
    if expected is None:
        return OK if rcode == RCODE_NXDOMAIN and reply[6:8] == b"\x00\x00" else WRONG
    if rcode != RCODE_NOERROR or reply[6:8] != b"\x00\x01":
        return WRONG
    return OK if reply[-4:] == expected else WRONG


def check_echo(query: bytes, reply: bytes, expected: bytes | None) -> str:
    """An echo server must return the query unchanged."""
    return OK if reply == query else WRONG


@dataclasses.dataclass
class PhaseResult:
    """What one phase sent, got back and measured."""

    start: float
    duration_s: float
    sent: int = 0
    answered: int = 0
    lost: int = 0
    servfail: int = 0
    wrong: int = 0
    #: Arrival time of each correct answer before the phase deadline.
    answer_times: list[float] = dataclasses.field(default_factory=list)
    #: Seconds from due time to reply, per answered query (open loop).
    latencies: list[float] = dataclasses.field(default_factory=list)
    #: Seconds the generator sent after the due time (open loop).
    lateness: list[float] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.lost + self.servfail + self.wrong

    @property
    def rate(self) -> float:
        """Answered queries per second: the median over
        :data:`RATE_WINDOW`-second slices of the phase, so one host stall
        does not set the phase's rate."""
        slices = int(self.duration_s / RATE_WINDOW)
        if slices < 3:
            return len(self.answer_times) / self.duration_s
        counts = [0] * slices
        for moment in self.answer_times:
            index = int((moment - self.start) / RATE_WINDOW)
            if index < slices:
                counts[index] += 1
        return statistics.median(counts) / RATE_WINDOW


class LoadGenerator:
    """Two connected UDP sockets aimed at one (ip, port)."""

    def __init__(
        self,
        target: tuple[str, int],
        mix: QueryMix,
        check: Callable[[bytes, bytes, bytes | None], str] = check_dns_reply,
    ) -> None:
        self.mix = mix
        self.check = check
        self.sockets = []
        for _ in range(2):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            sock.connect(target)
            sock.setblocking(False)
            self.sockets.append(sock)
        self._fds = {sock.fileno(): index for index, sock in enumerate(self.sockets)}
        self._txid = [0, 0]
        self._turn = 0
        #: (socket index, txid) -> (query wire, expected, due time).
        self._pending: dict[tuple[int, int], tuple[bytes, bytes | None, float]] = {}

    def close(self) -> None:
        for sock in self.sockets:
            sock.close()
        self.sockets = []

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _send(self, due: float, result: PhaseResult) -> float:
        """Send the next query of the mix; returns the send time."""
        index = self._turn
        self._turn ^= 1
        txid = self._txid[index] = (self._txid[index] + 1) & 0xFFFF
        question, expected = self.mix.next()
        wire = query_wire(txid, question)
        sent_at = time.perf_counter()
        self.sockets[index].send(wire)
        self._pending[(index, txid)] = (wire, expected, due)
        result.sent += 1
        return sent_at

    def _receive(self, wait: float, result: PhaseResult, deadline: float,
                 on_answer: Callable[[], None] | None = None,
                 record_latency: bool = False) -> None:
        """Wait up to ``wait`` seconds, then drain every readable socket."""
        readable, _, _ = select.select(self.sockets, (), (), max(wait, 0.0))
        for sock in readable:
            index = self._fds[sock.fileno()]
            while True:
                try:
                    reply = sock.recv(4096)
                except BlockingIOError:
                    break
                now = time.perf_counter()
                if len(reply) < 2:
                    result.wrong += 1
                    continue
                entry = self._pending.pop((index, reply[0] << 8 | reply[1]), None)
                if entry is None:
                    continue  # a reply to a query already given up as lost
                wire, expected, due = entry
                outcome = self.check(wire, reply, expected)
                if outcome == OK:
                    result.answered += 1
                    if now <= deadline:
                        result.answer_times.append(now)
                    if record_latency:
                        result.latencies.append(now - due)
                elif outcome == SERVFAIL:
                    result.servfail += 1
                else:
                    result.wrong += 1
                if on_answer is not None:
                    on_answer()

    def _expire(self, now: float, result: PhaseResult) -> int:
        """Count overdue queries as lost; returns how many."""
        cutoff = now - LOSS_TIMEOUT_S
        stale = [key for key, entry in self._pending.items() if entry[2] < cutoff]
        for key in stale:
            del self._pending[key]
        result.lost += len(stale)
        return len(stale)

    def _drain_tail(self, result: PhaseResult, deadline: float,
                    record_latency: bool) -> None:
        """After the last send, wait for stragglers, then count the rest lost."""
        give_up = time.perf_counter() + LOSS_TIMEOUT_S
        while self._pending and time.perf_counter() < give_up:
            self._receive(0.01, result, deadline, record_latency=record_latency)
        result.lost += len(self._pending)
        self._pending.clear()

    # -- phases ------------------------------------------------------------

    def run_open_loop(self, rate: float, duration: float) -> PhaseResult:
        """Send ``rate`` queries per second for ``duration`` seconds."""
        start = time.perf_counter()
        result = PhaseResult(start=start, duration_s=duration)
        interval = 1.0 / rate
        count = int(rate * duration)
        deadline = start + duration
        next_expiry = start + 0.05
        index = 0
        while index < count:
            now = time.perf_counter()
            due = start + index * interval
            while index < count and due <= now:
                sent_at = self._send(due, result)
                result.lateness.append(sent_at - due)
                index += 1
                due = start + index * interval
            if now >= next_expiry:
                self._expire(now, result)
                next_expiry = now + 0.05
            if index < count:
                self._receive(due - time.perf_counter(), result, deadline,
                              record_latency=True)
        self._drain_tail(result, deadline, record_latency=True)
        return result

    def run_saturation(self, duration: float, in_flight: int) -> PhaseResult:
        """Keep ``in_flight`` queries outstanding for ``duration`` seconds."""
        start = time.perf_counter()
        result = PhaseResult(start=start, duration_s=duration)
        deadline = start + duration

        def refill() -> None:
            if time.perf_counter() < deadline:
                self._send(time.perf_counter(), result)

        for _ in range(in_flight):
            self._send(start, result)
        next_expiry = start + 0.05
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if now >= next_expiry:
                for _ in range(self._expire(now, result)):
                    refill()
                next_expiry = now + 0.05
            self._receive(min(0.01, deadline - now), result, deadline,
                          on_answer=refill)
        self._drain_tail(result, deadline, record_latency=False)
        return result
