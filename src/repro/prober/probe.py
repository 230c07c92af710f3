"""The prober: rate-paced Q1 generation and R2 collection.

One :class:`Prober` drives a whole scan: it walks the ZMap permutation
over the non-reserved IPv4 space, pairs every probe with a fresh (or
reused) subdomain, installs new zone clusters at the authoritative
server as they are needed — pausing for the load window, as the paper
did — and collects R2 responses on its source port.

``responder_hint`` is a pure simulation accelerator: when the set of
instantiated responder addresses is supplied, Q1 packets to the (vast)
unresponsive remainder are accounted for — counters, bytes, subdomain
consumption, reuse timing — without materializing datagrams that the
network would drop undelivered anyway. Equivalence of the two paths is
covered by tests.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from collections.abc import Sequence
from itertools import islice

from repro.dnslib.fastwire import Q1Template, peek_qname
from repro.dnslib.message import make_query
from repro.dnslib.wire import encode_message
from repro.dnssrv.auth import AuthoritativeServer
from repro.netsim.network import Network
from repro.netsim.packet import UDP_IP_OVERHEAD, Datagram
from repro.prober.capture import R2Record
from repro.prober.subdomain import ClusterAllocator, ClusterStats, SubdomainScheme
from repro.prober.zmap import probe_order
from repro.netsim.ipv4 import int_to_ip, ip_to_int

#: Default prober address (a university /16, like the authors').
PROBER_IP = "132.170.3.14"


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Q1 retransmission policy (ZDNS-style retry/timeout machinery).

    Disabled by default (``max_retries=0``) — plain ZMap behavior, one
    datagram per target, which keeps every table exact under
    ``NoLoss``. When enabled, a probe still unanswered ``timeout``
    seconds after it was sent is retransmitted with the *same* qname
    (so its flows join) up to ``max_retries`` times, the k-th retry
    waiting ``timeout * backoff**k``. Retransmissions are accounted in
    :class:`ProbeCapture` (``retries_sent`` / ``retries_exhausted``),
    never in ``q1_sent`` — Table II counts targets, not datagrams.

    The whole retry schedule should fit inside
    ``ProbeConfig.response_window``: after the window the subdomain may
    be reused for a different target, at which point retrying the old
    probe would be wrong. :class:`ProbeConfig` validates this.
    """

    max_retries: int = 0
    timeout: float = 1.5
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if math.isnan(self.timeout) or self.timeout <= 0:
            raise ValueError(f"retry timeout must be positive: {self.timeout}")
        if math.isnan(self.backoff) or self.backoff < 1.0:
            raise ValueError(f"retry backoff must be >= 1: {self.backoff}")

    @property
    def enabled(self) -> bool:
        return self.max_retries > 0

    def delay_for_attempt(self, attempt: int) -> float:
        """Seconds to wait after the ``attempt``-th transmission (0-based)."""
        return self.timeout * self.backoff**attempt

    def total_horizon(self) -> float:
        """Worst-case seconds from first send to giving up."""
        return sum(
            self.delay_for_attempt(attempt)
            for attempt in range(self.max_retries + 1)
        )

    def last_retransmission_offset(self) -> float:
        """Seconds from first send to the final retransmission."""
        return sum(
            self.delay_for_attempt(attempt)
            for attempt in range(self.max_retries)
        )


@dataclasses.dataclass
class ProbeConfig:
    """Scan parameters. Rates/sizes are in *scaled* units.

    ``addresses``, when given, replaces the internal permutation walk
    with an explicit target list — how a sharded campaign hands each
    worker its strided slice of the shared universe.
    ``cluster_base``/``cluster_limit`` give the allocator a private
    slice of the cluster namespace so concurrent shards mint globally
    unique qnames. The config is a plain picklable dataclass so it can
    cross a process boundary.
    """

    q1_target: int
    rate_pps: float
    cluster_size: int = 5_000_000
    reuse_subdomains: bool = True
    response_window: float = 5.0
    seed: int = 0
    source_port: int = 31337
    sld: str = "ucfsealresearch.net"
    record_sent_log: bool = False
    blocklist: tuple[str, ...] = ()
    addresses: Sequence[int] | None = None
    cluster_base: int = 0
    cluster_limit: int | None = None
    retry: RetryPolicy = RetryPolicy()
    #: Retain raw R2 payloads in the capture. The streaming pipeline's
    #: ``--drop-captures`` mode turns this off: responses are still
    #: parsed for reuse bookkeeping (and observed by network sinks) but
    #: never accumulated, so prober memory stays flat.
    retain_r2: bool = True

    def __post_init__(self) -> None:
        if self.q1_target < 0:
            raise ValueError("q1_target must be non-negative")
        if self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if math.isnan(self.response_window) or self.response_window <= 0:
            raise ValueError(
                f"response_window must be positive: {self.response_window}"
            )
        if self.addresses is not None and len(self.addresses) != self.q1_target:
            raise ValueError(
                "explicit address list must match q1_target: "
                f"{len(self.addresses)} != {self.q1_target}"
            )
        if (
            self.retry.enabled
            and self.retry.last_retransmission_offset() > self.response_window
        ):
            raise ValueError(
                "retry schedule outlives the response window: last "
                f"retransmission at +{self.retry.last_retransmission_offset():g}s "
                f"but subdomains may be reused after {self.response_window:g}s"
            )


@dataclasses.dataclass
class ProbeCapture:
    """Everything the prober measured during one scan.

    A plain picklable value object: sharded campaigns ship one capture
    per worker back to the parent and fold them with
    :func:`merge_captures`.
    """

    q1_sent: int
    q1_bytes: int
    r2_records: list[R2Record]
    start_time: float
    end_time: float
    cluster_stats: ClusterStats
    sent_log: dict[str, str]
    #: qname -> probed destination of its *latest* materialized probe
    #: (reuse overwrites). The batch forwarder census joins a flow's
    #: final R2 source against this to spot off-path answers; with
    #: ``retain_r2=False`` (streaming ``--drop-captures``) it stays
    #: empty — the aggregate tracks targets online instead.
    targets: dict[str, str] = dataclasses.field(default_factory=dict)
    # Retransmission accounting (all zero with the default RetryPolicy).
    # ``q1_sent`` stays the number of *targets* probed so Table II is
    # invariant under retry policy; datagram overhead lands here.
    retries_sent: int = 0
    retry_bytes: int = 0
    retries_exhausted: int = 0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def r2_count(self) -> int:
        return len(self.r2_records)


def merge_captures(captures: list[ProbeCapture]) -> ProbeCapture:
    """Fold per-shard captures into one campaign-wide capture.

    Counters add; the scan spans min(start) .. max(end) because every
    shard paces itself at ``rate/N`` over ``1/N`` of the universe and
    therefore walks the same wall clock as the serial scan. The merged
    record list is re-sorted on (timestamp, source, payload) so its
    order does not depend on shard completion order. Cluster stats add
    too — each shard runs its own allocator, so the merged
    ``clusters_created`` counts zones installed across all shard auth
    servers. Sent-log keys union directly: shards allocate from
    disjoint cluster-namespace slices, so qnames never collide.
    """
    if not captures:
        raise ValueError("cannot merge zero captures")
    if len(captures) == 1:
        return captures[0]
    records = [
        record for capture in captures for record in capture.r2_records
    ]
    records.sort(key=lambda r: (r.timestamp, r.src_ip, r.payload))
    stats = ClusterStats()
    sent_log: dict[str, str] = {}
    targets: dict[str, str] = {}
    for capture in captures:
        stats.clusters_created += capture.cluster_stats.clusters_created
        stats.fresh_allocations += capture.cluster_stats.fresh_allocations
        stats.reused_allocations += capture.cluster_stats.reused_allocations
        stats.burned += capture.cluster_stats.burned
        if sent_log.keys() & capture.sent_log.keys():
            raise ValueError("sent logs overlap: shards shared a qname")
        sent_log.update(capture.sent_log)
        if targets.keys() & capture.targets.keys():
            raise ValueError("target logs overlap: shards shared a qname")
        targets.update(capture.targets)
    return ProbeCapture(
        q1_sent=sum(capture.q1_sent for capture in captures),
        q1_bytes=sum(capture.q1_bytes for capture in captures),
        r2_records=records,
        start_time=min(capture.start_time for capture in captures),
        end_time=max(capture.end_time for capture in captures),
        cluster_stats=stats,
        sent_log=sent_log,
        targets=targets,
        retries_sent=sum(capture.retries_sent for capture in captures),
        retry_bytes=sum(capture.retry_bytes for capture in captures),
        retries_exhausted=sum(
            capture.retries_exhausted for capture in captures
        ),
    )


class Prober:
    """The modified-ZMap prober of Fig 2."""

    def __init__(
        self,
        network: Network,
        auth: AuthoritativeServer,
        config: ProbeConfig,
        ip: str = PROBER_IP,
        responder_hint: set[str] | None = None,
        telemetry=None,
    ) -> None:
        self.network = network
        self.auth = auth
        self.config = config
        self.ip = ip
        self.responder_hint = responder_hint
        # Optional repro.telemetry.TelemetryHub; consulted only at
        # cluster-install time (once per ~cluster_size probes), never
        # in the per-probe loop, so the disabled path costs nothing.
        self._telemetry = telemetry
        self.scheme = SubdomainScheme(sld=config.sld)
        # Integer form of the hint: the send loop works in address ints
        # and only renders dotted quads for probes it materializes.
        self._hint_ints = (
            None if responder_hint is None
            else {ip_to_int(address) for address in responder_hint}
        )
        # The pre-encoded Q1 template; a scheme whose qnames are not
        # fixed-width patchable falls back to per-probe encoding.
        try:
            self._q1_template: Q1Template | None = Q1Template(self.scheme)
        except ValueError:
            self._q1_template = None
        self.allocator = ClusterAllocator(
            self.scheme,
            cluster_size=config.cluster_size,
            reuse=config.reuse_subdomains,
            cluster_base=config.cluster_base,
            cluster_limit=config.cluster_limit,
        )
        if config.addresses is not None:
            self._addresses = iter(config.addresses)
        else:
            self._addresses = probe_order(
                seed=config.seed, limit=config.q1_target,
                blocklist=config.blocklist,
            )
        self._q1_sent = 0
        self._q1_bytes = 0
        self._accumulator = 0.0
        self._r2_records: list[R2Record] = []
        self._answered: set[tuple[int, int]] = set()
        # (answer time, allocation) in arrival order, so _answered can
        # be pruned once entries are too old to matter (see
        # _reclaim_unanswered) and prober memory stays flat.
        self._answered_log: deque[tuple[float, tuple[int, int]]] = deque()
        # In-flight ledger, one entry per send batch: every probe in a
        # batch shares its send time, so the ledger holds (time, batch)
        # rather than a tuple per probe.
        self._in_flight: deque[tuple[float, list[tuple[int, int]]]] = deque()
        self._sent_log: dict[str, str] = {}
        self._targets: dict[str, str] = {}
        self._sending_done = False
        self._installed_through = -1
        self._start_time = 0.0
        self._retries_sent = 0
        self._retry_bytes = 0
        self._retries_exhausted = 0
        # Pending retry-check events by allocation, cancelled on answer
        # so an answered probe costs no extra datagrams and no extra
        # simulated time.
        self._retry_events: dict[tuple[int, int], object] = {}
        # Fixed per-probe wire size: the qname format is constant-length.
        self._q1_wire_size = (
            UDP_IP_OVERHEAD + 12 + (self.scheme.qname_length + 2) + 4
        )

    # -- public API --------------------------------------------------------

    def run(
        self,
        event_batch: int | None = None,
        on_batch=None,
    ) -> ProbeCapture:
        """Execute the scan to completion and return the capture.

        ``event_batch`` switches the drain to batched event pulls
        (:meth:`Scheduler.run_batch`): identical event order — hence
        identical capture bytes — but the caller's ``on_batch`` hook
        runs once per batch, which is where the multicore engine
        coalesces telemetry counter flushes instead of paying them per
        probe.
        """
        self.network.bind(self.ip, self.config.source_port, self._on_response)
        self._start_time = self.network.now
        self._schedule_tick(self.network.now)
        if event_batch is None:
            self.network.run()
        else:
            scheduler = self.network.scheduler
            while scheduler.run_batch(event_batch):
                if on_batch is not None:
                    on_batch()
        return ProbeCapture(
            q1_sent=self._q1_sent,
            q1_bytes=self._q1_bytes,
            r2_records=self._r2_records,
            start_time=self._start_time,
            end_time=self.network.now,
            cluster_stats=self.allocator.stats,
            sent_log=self._sent_log,
            targets=self._targets,
            retries_sent=self._retries_sent,
            retry_bytes=self._retry_bytes,
            retries_exhausted=self._retries_exhausted,
        )

    # -- receive path --------------------------------------------------------

    def _on_response(self, datagram: Datagram, network: Network) -> None:
        if self.config.retain_r2:
            self._r2_records.append(
                R2Record(network.now, datagram.src_ip, datagram.payload)
            )
        allocation = self._allocation_from_payload(datagram.payload)
        if allocation is not None and allocation not in self._answered:
            self._answered.add(allocation)
            self._answered_log.append((network.now, allocation))
            self.allocator.burn(allocation)
            event = self._retry_events.pop(allocation, None)
            if event is not None:
                event.cancel()

    def _allocation_from_payload(self, payload: bytes) -> tuple[int, int] | None:
        """Cheap qname extraction for reuse bookkeeping."""
        qname = peek_qname(payload)
        if qname is None:
            return None
        return self.scheme.parse(qname)

    # -- send path ---------------------------------------------------------

    def _schedule_tick(self, at: float) -> None:
        self.network.scheduler.call_at(at, self._tick)

    def _tick(self) -> None:
        """Send one second's worth of probes, then reschedule."""
        now = self.network.now
        self._reclaim_unanswered(now)
        self._accumulator += self.config.rate_pps
        budget = int(self._accumulator)
        self._accumulator -= budget
        target = self.config.q1_target
        while budget > 0:
            if self._q1_sent >= target:
                self._sending_done = True
                return
            if self.allocator.needs_new_cluster():
                next_cluster = self.allocator.current_cluster + 1
                if self._installed_through < next_cluster:
                    # Load the next cluster at the auth server and pause
                    # sending until the load completes (section III-B).
                    ready_at = self._install_next_cluster(now)
                    self._installed_through = next_cluster
                    self._schedule_tick(max(ready_at, now + 1.0))
                    return
                self.allocator.open_next_cluster()
            batch = min(budget, target - self._q1_sent,
                        self.allocator.available())
            sent = self._send_batch(now, batch)
            if sent < batch:  # permutation walk exhausted mid-batch
                self._sending_done = True
                return
            budget -= sent
        if self._q1_sent < target:
            self._schedule_tick(now + 1.0)
        else:
            self._sending_done = True

    def _send_batch(self, now: float, count: int) -> int:
        """Send up to ``count`` probes; returns how many targets remained.

        The batched equivalent of ``count`` single-probe sends: the
        address chunk is pulled first and exactly that many subdomains
        are reserved, so an exhausted walk never strands allocations.
        Per-probe state (msg_id, counters, reuse log) matches the
        sequential path bit for bit.
        """
        chunk = list(islice(self._addresses, count))
        got = len(chunk)
        base = self._q1_sent
        if got == 0:
            self._q1_sent = self.config.q1_target
            return 0
        allocations = self.allocator.reserve(got)
        self._in_flight.append((now, allocations))
        hint = self._hint_ints
        config = self.config
        wire_size = self._q1_wire_size
        template = self._q1_template
        qname_of = self.scheme.qname
        send = self.network.send
        src_ip = self.ip
        src_port = config.source_port
        retry_enabled = config.retry.enabled
        record_log = config.record_sent_log
        record_targets = config.retain_r2
        targets_log = self._targets
        misses = 0
        if hint is None:
            offsets = range(got)
        else:
            # Hint misses are accounted, not materialized: the network
            # would drop them unbound anyway.
            offsets = [o for o in range(got) if chunk[o] in hint]
            misses = got - len(offsets)
        for offset in offsets:
            address = chunk[offset]
            allocation = allocations[offset]
            msg_id = (base + offset + 1) & 0xFFFF
            target_ip = int_to_ip(address)
            cluster, index = allocation
            if record_targets or record_log:
                qname = qname_of(cluster, index)
                if record_targets:
                    targets_log[qname] = target_ip
                if record_log:
                    self._sent_log[qname] = target_ip
            if template is not None:
                payload = template.render(cluster, index, msg_id)
            else:
                payload = encode_message(
                    make_query(qname_of(cluster, index), msg_id=msg_id)
                )
            send(Datagram(src_ip, src_port, target_ip, 53, payload))
            if retry_enabled:
                self._arm_retry(allocation, target_ip, msg_id, attempt=0)
        # On exhaustion (got < count) the walk is over: snap q1_sent to
        # the target exactly as the sequential path's StopIteration did.
        self._q1_sent = base + got if got == count else self.config.q1_target
        self._q1_bytes += got * wire_size
        if misses:
            stats = self.network.stats
            stats.sent += misses
            stats.unbound += misses
            stats.bytes_sent += misses * wire_size
        return got

    # -- retransmission -----------------------------------------------------

    def _arm_retry(
        self, allocation: tuple[int, int], target_ip: str, msg_id: int,
        attempt: int,
    ) -> None:
        """Schedule the post-transmission unanswered check."""
        existing = self._retry_events.get(allocation)
        if existing is not None:  # a reused allocation's stale check
            existing.cancel()
        self._retry_events[allocation] = self.network.scheduler.after(
            self.config.retry.delay_for_attempt(attempt),
            lambda: self._maybe_retry(allocation, target_ip, msg_id, attempt),
        )

    def _maybe_retry(
        self, allocation: tuple[int, int], target_ip: str, msg_id: int,
        attempt: int,
    ) -> None:
        """Deadline passed with no answer: retransmit or give up."""
        self._retry_events.pop(allocation, None)
        if allocation in self._answered:
            return  # the answer and the cancel raced one event slot
        if attempt >= self.config.retry.max_retries:
            self._retries_exhausted += 1
            return
        self._retries_sent += 1
        self._retry_bytes += self._q1_wire_size
        if self._q1_template is not None:
            payload = self._q1_template.render(*allocation, msg_id)
        else:
            payload = encode_message(
                make_query(self.scheme.qname(*allocation), msg_id=msg_id)
            )
        self.network.send(
            Datagram(
                self.ip, self.config.source_port, target_ip, 53, payload
            )
        )
        self._arm_retry(allocation, target_ip, msg_id, attempt + 1)

    #: ``_answered`` entries older than this many response windows are
    #: pruned. Must be > 1 so an answered probe is always *reclaimed*
    #: (and its release skipped) before its answered-entry is dropped —
    #: that ordering is what keeps a burned subdomain out of the reuse
    #: pool forever.
    _ANSWERED_RETENTION_WINDOWS = 4.0

    def _reclaim_unanswered(self, now: float) -> None:
        """Return response-window-expired, unanswered subdomains to the pool."""
        deadline = now - self.config.response_window
        in_flight = self._in_flight
        answered = self._answered
        if in_flight and in_flight[0][0] <= deadline:
            release_all = self.allocator.release_all
            while in_flight and in_flight[0][0] <= deadline:
                batch = in_flight.popleft()[1]
                if answered:
                    release_all(
                        allocation for allocation in batch
                        if allocation not in answered
                    )
                else:
                    release_all(batch)
        # Prune long-since-reclaimed answered entries so the set stays
        # bounded on endless scans. Runs after the reclaim loop: every
        # pruned entry's probe (sent at or before the answer arrived)
        # is already past the reclaim deadline, so its release was
        # skipped while the entry was still present.
        retire = now - self._ANSWERED_RETENTION_WINDOWS * self.config.response_window
        answered_log = self._answered_log
        while answered_log and answered_log[0][0] <= retire:
            _, allocation = answered_log.popleft()
            answered.discard(allocation)

    def _install_next_cluster(self, now: float) -> float:
        """Generate and load the next subdomain cluster at the auth server."""
        next_cluster = self.allocator.current_cluster + 1
        zone = self.allocator.build_cluster_zone(next_cluster, self.auth.ip)
        ready_at = self.auth.install_cluster(zone, now, graceful=True)
        if self._telemetry is not None:
            self._telemetry.record_zone_install(now, ready_at, next_cluster)
        return ready_at
