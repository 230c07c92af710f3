"""The campaign engine: sharded, crash-tolerant scan execution.

The paper's scan covers the routable IPv4 space from one box; ZMap's
cyclic-group permutation is what makes that embarrassingly parallel:
any strided slice of the permutation is itself a uniform sample of the
space. This module partitions the campaign universe into ``N``
deterministic shards — shard ``i`` probes ``universe[i::N]`` at
``rate/N`` — runs each shard as an independent :class:`Prober` +
:class:`Network` discrete-event simulation, and merges the per-shard
captures and flows into a single :class:`CampaignResult`.

:func:`run_sharded` is the only campaign executor. Every
:meth:`Campaign.run <repro.core.campaign.Campaign.run>` goes through
it: a one-worker campaign is shard 0 of 1, run in-process, exactly as
ZMap's one-host scan is shard 0 of 1 of the same permuted walk. Each
round runs its pending shards either in-process (:func:`run_shard`) or
in forked children that each send their outcome back as one message on
a pipe (:func:`repro.core.multicore.run_multicore`).

Determinism contract (see DESIGN.md §6): for a given
``(seed, scale, year)`` and ``loss_rate == 0`` the merged run renders
Tables II–X byte-identically at any worker count. The guarantee holds
because

- the population is sampled once per (seed, scale, year) from the full
  universe, identically in every worker, and each host lands in
  exactly one shard (the one probing its address);
- resolver behavior is a deterministic function of the spec and the
  query, so per-probe outcomes do not depend on interleaving (the auth
  server retains every installed cluster zone for exactly this reason:
  a reused subdomain must resolve the same whenever its Q2 lands);
- each shard paces ``1/N`` of the probes at ``rate/N``, so the merged
  scan spans the same wall clock as a one-shard scan;
- analysis tables are order-independent: each shard mints qnames from
  a private slice of the cluster namespace (so merged flows union
  collision-free), and every analyzer sorts on content, never on
  arrival order.

Per-shard randomness (latency draws, fault schedules) is seeded by
:func:`shard_seed` — shards never replay each other's streams, and a
*re-run* shard replays exactly its own. That second property is the
failure-domain story: a shard that crashes or whose worker is killed
is requeued up to ``config.max_shard_retries`` times, and because the
re-run is byte-identical, recovery is invisible in the merged tables.
Shards that exhaust their retries are reported in the result's
``degraded`` manifest instead of aborting the campaign, and every
completed shard can be checkpointed to disk (``checkpoint_dir=``) so an
interrupted campaign resumes by re-executing only the missing shards
(``resume=True``).

With ``loss_rate > 0`` runs at different worker counts are
statistically, but not byte-for-byte, equivalent (loss coin-flips land
on different packets). The same holds for the stochastic parts of a
fault profile — but blackholed addresses are identical at every worker
count, because their selection hashes the address, not the shard.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pathlib
import time
import warnings

from repro.dnssrv.auth import QueryLogEntry
from repro.dnssrv.hierarchy import (
    AUTH_IP,
    ROOT_IP,
    TLD_IP,
    build_hierarchy,
)
from repro.netsim.faults import build_injector, fault_profile
from repro.netsim.ipv4 import ip_to_int
from repro.netsim.latency import LogNormalLatency
from repro.netsim.loss import BernoulliLoss
from repro.netsim.network import Network
from repro.netsim.seeds import derive_seed
from repro.prober.capture import FlowSet, join_flows, merge_flow_sets
from repro.prober.probe import (
    PROBER_IP,
    ProbeCapture,
    ProbeConfig,
    Prober,
    merge_captures,
)
from repro.prober.subdomain import SubdomainScheme
from repro.prober.zmap import probe_list
from repro.resolvers.apportion import scale_count
from repro.resolvers.population import (
    PopulationSampler,
    SampledPopulation,
    assign_transparent_forwarders,
    deploy_forwarder_upstreams,
)
from repro.resolvers.profiles import profile_for_year
from repro.stats import ValidationTable
from repro.stream.aggregate import TableAggregate, merge_aggregates
from repro.stream.assembler import StreamStats
from repro.stream.pipeline import StreamPipeline
from repro.telemetry.hub import (
    TelemetryConfig,
    TelemetryHub,
    TelemetrySnapshot,
    as_hub,
    maybe_span,
)

#: Chaos-testing hooks, read by every shard (the environment crosses
#: the process boundary, so they work in-process and in forked
#: children alike). Format: ``"index:count,index:count"`` — shard
#: ``index`` fails while its attempt number is below ``count``.
#: ``REPRO_CHAOS_RAISE`` raises inside the shard (a crashing shard);
#: ``REPRO_CHAOS_EXIT`` hard-kills the process with ``os._exit`` (a
#: dying worker — only use under process parallelism, an in-process
#: shard would take the whole interpreter down).
CHAOS_RAISE_ENV = "REPRO_CHAOS_RAISE"
CHAOS_EXIT_ENV = "REPRO_CHAOS_EXIT"


def shard_seed(seed: int, index: int, workers: int) -> int:
    """The network seed of shard ``index`` of ``workers``.

    A one-shard campaign keeps the campaign seed itself, so a serial
    scan's bytes do not depend on the engine running it — faults and
    loss included; a real split derives one splitmix64 lane per shard.
    """
    return seed if workers == 1 else derive_seed(seed, index, workers)


class ShardExecutionError(RuntimeError):
    """A shard failed.

    Carries the shard coordinates and its :func:`shard_seed` so the
    failure is reproducible from the message alone:
    ``run_shard(ShardTask(config, index=i, workers=n))`` replays the
    exact simulation, faults included.
    """

    def __init__(self, index: int, workers: int, seed: int, message: str) -> None:
        super().__init__(
            f"shard {index}/{workers} failed (derived seed {seed:#x}; "
            f"reproduce with run_shard(ShardTask(config, index={index}, "
            f"workers={workers}))): {message}"
        )
        self.index = index
        self.workers = workers
        self.seed = seed
        self.message = message

    def __reduce__(self):  # exceptions with extra args need explicit pickling
        return (ShardExecutionError, (self.index, self.workers, self.seed, self.message))


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One shard's assignment: which slice of which campaign.

    Small by construction — shards rebuild the universe and the
    population from the config, except for an explicit
    ``population_override`` (an evolved world cannot be re-derived from
    the seed). ``attempt`` counts previous failures of this shard; it
    never feeds the seed derivation, so a requeued shard re-runs
    byte-identically.
    """

    config: "CampaignConfig"  # noqa: F821 - imported lazily to avoid a cycle
    index: int
    workers: int
    population_override: SampledPopulation | None = None
    attempt: int = 0
    #: Optional observability config (picklable, crosses the process
    #: boundary); the shard builds its own TelemetryHub from it and
    #: ships the snapshot back on the outcome. Deliberately not part
    #: of CampaignConfig — it never shapes shard bytes.
    telemetry: TelemetryConfig | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not 0 <= self.index < self.workers:
            raise ValueError(f"shard index {self.index} outside [0, {self.workers})")


@dataclasses.dataclass
class ShardOutcome:
    """What one shard ships back to the parent for merging.

    Whether it crosses a worker's pipe or lands in a checkpoint, it
    travels in one byte format, :func:`repro.stream.codec.encode_outcome`.

    A streaming shard (``config.mode == "stream"``) also carries its
    folded :class:`TableAggregate` — with ``drop_captures`` that is
    essentially *all* it carries: ``capture.r2_records``, ``flow_set``
    and ``query_log`` come back empty, so shard checkpoints persist
    accumulator state instead of raw packets and ``--resume`` stays
    cheap at any probe count.
    """

    index: int
    capture: ProbeCapture
    flow_set: FlowSet
    query_log: list[QueryLogEntry]
    aggregate: TableAggregate | None = None
    stream_stats: StreamStats | None = None
    #: Per-shard telemetry snapshot (metrics + spans + heartbeats),
    #: merged into the parent hub; ~KBs, so checkpoints stay cheap.
    telemetry: TelemetrySnapshot | None = None


def shard_universe(universe: list[int], index: int, workers: int) -> list[int]:
    """Shard ``index``'s strided slice of the probe universe."""
    return universe[index::workers]


def cluster_namespace_slice(index: int, workers: int) -> tuple[int, int]:
    """Shard ``index``'s private ``[base, limit)`` cluster-number range.

    Disjoint ranges make every shard's qnames globally unique without
    any cross-shard coordination, which keeps merged flows join-safe
    and persisted datasets rejoinable offline. With subdomain reuse a
    shard opens only a handful of clusters, so even a thin slice of the
    1000-cluster namespace is roomy.
    """
    max_clusters = SubdomainScheme().max_clusters
    span = max_clusters // workers
    if span == 0:
        raise ValueError(
            f"{workers} workers cannot share a {max_clusters}-cluster namespace"
        )
    return index * span, (index + 1) * span


def checkpoint_fingerprint(config) -> dict:
    """The config fields that shape shard bytes, for manifest matching.

    ``max_shard_retries`` is deliberately excluded: retrying harder is
    a legitimate thing to change between a crash and its resume.
    ``engine`` never shaped shard bytes and stays out too, so
    checkpoints written before the engines merged still resume.
    """
    fingerprint = dataclasses.asdict(config)
    fingerprint.pop("max_shard_retries", None)
    fingerprint.pop("engine", None)
    return fingerprint


#: Single-slot memo for the campaign universe: (key, list). The walk
#: over the ZMap permutation is a pure function of (seed, year, scale)
#: and every shard needs the *full* list (the population sampler draws
#: host addresses across the whole universe), so recomputing it per
#: shard is pure fixed cost. Process rounds prime this slot before
#: forking, and fork children inherit the materialized list for free.
#: The cached list is never mutated — shards slice it, samplers read it.
_universe_cache: tuple[tuple, list[int]] | None = None


def _campaign_universe(config) -> list[int]:
    global _universe_cache
    key = (config.seed, config.year, config.scale)
    cached = _universe_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    profile = profile_for_year(config.year)
    universe = probe_list(
        seed=config.seed, limit=scale_count(profile.q1_full, config.scale)
    )
    _universe_cache = (key, universe)
    return universe


#: Single-slot memo for the sampled world: (key, (population,
#: software_map, banners, validators)). Like the universe, the sampled
#: population and its intel overlays are pure functions of the config
#: (the infrastructure exclusion set is module constants), identical
#: for every shard — and sampling walks the whole universe, so it is
#: the other O(universe) fixed cost a shard would otherwise pay per
#: process. The cached state is read-only after construction: the
#: transparent-forwarder overlay (the one in-place mutation) is
#: applied exactly once before the value enters the cache, assignments
#: and specs are frozen dataclasses, and ``deploy`` builds fresh
#: per-network hosts — so shards in one process, the parent's
#: follow-up world and fork children can all share it without drift.
_world_cache: tuple[tuple, tuple] | None = None


def _overlay_world(config, population: SampledPopulation) -> tuple:
    """(population, software_map, banners, validators) for ``population``.

    The intel overlays every world carries — software identities,
    DNSSEC validators — plus the transparent-forwarder flips, which
    rewrite ``population``'s specs in place. Each draws from its own
    seeded lane, so the base sampling draws are untouched.
    """
    software_map: dict[str, object] = {}
    banners: dict[str, str | None] = {}
    if config.fingerprinting:
        from repro.fingerprint.identities import assign_software

        software_map = assign_software(population, seed=config.seed)
        banners = {ip: identity.banner for ip, identity in software_map.items()}
    validators: set[str] = set()
    if config.dnssec:
        from repro.dnssec.census import assign_validators

        validators = assign_validators(
            population, year=config.year, seed=config.seed
        )
    assign_transparent_forwarders(population, seed=config.seed)
    return population, software_map, banners, validators


def _campaign_world(config, universe) -> tuple:
    """(population, software_map, banners, validators) for ``config``."""
    global _world_cache
    key = (
        config.seed, config.year, config.scale,
        config.fingerprinting, config.dnssec,
    )
    cached = _world_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    population = PopulationSampler(
        profile_for_year(config.year),
        scale=config.scale,
        seed=config.seed,
        excluded_ips={ROOT_IP, TLD_IP, AUTH_IP, PROBER_IP},
        universe=universe,
    ).sample()
    world = _overlay_world(config, population)
    _world_cache = (key, world)
    return world


def prime_shard_caches(config) -> None:
    """Materialize the config-pure shared state (universe + world).

    Called in the parent before forking so children inherit both
    O(universe) artifacts — the permutation walk and the sampled
    population — instead of recomputing them per worker.
    """
    _campaign_world(config, _campaign_universe(config))


def _world(config, population_override=None) -> tuple:
    """(population, software_map, banners, validators) of a campaign.

    The cached world for ``config``, or ``population_override`` with
    the overlays applied. Deterministic in (seed, scale, year) and the
    override, so every process that asks gets the same population.
    """
    if population_override is None:
        return _campaign_world(config, _campaign_universe(config))
    # An evolved world bypasses the cache: it is not derivable from
    # the config. It shares assignment objects with the population it
    # evolved from — often the cached world — and the transparent
    # overlay rewrites specs in place, so the overlay runs on copies.
    return _overlay_world(config, dataclasses.replace(
        population_override,
        assignments=[
            dataclasses.replace(assignment)
            for assignment in population_override.assignments
        ],
    ))


def _build_world(config, seed: int, population_override=None) -> tuple:
    """One campaign world: network, hierarchy, population and intel.

    Returns (network, hierarchy, population, software_map, banners,
    validators); nothing is deployed yet. Every shard and the parent's
    follow-up world see the same population (:func:`_world`), so
    behavior does not depend on which process deploys which host.
    ``seed`` seeds the network only.
    """
    network = Network(
        seed=seed,
        latency=LogNormalLatency(median=config.latency_median, sigma=0.5),
        loss=BernoulliLoss(config.loss_rate) if config.loss_rate else None,
    )
    hierarchy = build_hierarchy(network)
    return (network, hierarchy, *_world(config, population_override))


@dataclasses.dataclass(frozen=True)
class CensusTask:
    """The validation census's assignment: which campaign's population.

    Like :class:`ShardTask` it is small: the census rebuilds the world
    from the config, or overlays the explicit ``population_override``.
    """

    config: "CampaignConfig"  # noqa: F821 - imported lazily to avoid a cycle
    population_override: SampledPopulation | None = None


def validation_census_table(task: CensusTask) -> ValidationTable:
    """The campaign's bogus-probe validation census table.

    Runs :func:`repro.dnssec.validation.run_validation_census` on its
    own derived-seed network against the campaign's population. It
    reads nothing from the scan, so a forked child and this process
    compute the same bytes from the same task, before, beside or after
    the rounds.
    """
    from repro.dnssec.validation import run_validation_census

    population, _, _, validators = _world(
        task.config, task.population_override
    )
    census = run_validation_census(
        task.config, population, validators or None
    )
    return census.table()


def _hosts_in_slice(
    population: SampledPopulation, addresses: list[int]
) -> SampledPopulation:
    """``population`` restricted to the hosts the shard's slice probes.

    Intersects the hosts' integer addresses (thousands) with the slice
    (up to millions) in one C-level pass.
    """
    assignments = population.assignments
    values = [ip_to_int(assignment.ip) for assignment in assignments]
    present = set(values).intersection(addresses)
    return dataclasses.replace(
        population,
        assignments=[
            assignment
            for assignment, value in zip(assignments, values)
            if value in present
        ],
    )


def _chaos_fail_count(env_name: str, index: int) -> int:
    """Parse a chaos directive: how many attempts shard ``index`` fails."""
    for part in os.environ.get(env_name, "").split(","):
        part = part.strip()
        if not part:
            continue
        shard, _, count = part.partition(":")
        if int(shard) == index:
            return int(count) if count else 1
    return 0


def _dump_flight_recorder(
    hub: TelemetryHub | None, task: ShardTask, reason: str
) -> None:
    """Post-mortem: write the shard's last-N wire events to disk.

    Fires when a shard fails or a chaos hook raises; a hard-killed
    worker (``REPRO_CHAOS_EXIT``) gets no dump — nothing survives
    ``os._exit``, which is the point of that chaos mode. Dump failures
    are swallowed: post-mortem telemetry must never turn a recoverable
    shard crash into an unrecoverable one.
    """
    if hub is None or hub.config.flight_dump_dir is None:
        return
    target = (
        pathlib.Path(hub.config.flight_dump_dir)
        / f"flight_shard_{task.index:04d}_attempt{task.attempt}.json"
    )
    try:
        hub.recorder.dump(target, reason=reason)
    except OSError:
        pass


def run_shard(task: ShardTask, event_batch: int | None = None) -> ShardOutcome:
    """Execute one shard's scan to completion.

    Any failure is re-raised as :class:`ShardExecutionError` carrying
    the shard index and seed, so the crash is reproducible from the
    error message alone. When the task carries a telemetry config with
    a ``flight_dump_dir``, any failure (chaos hooks included) also
    dumps the shard's flight-recorder window there for post-mortem.

    ``event_batch`` (set by forked workers) drains the scheduler in
    fixed-size event batches; the event order — and therefore every
    shipped byte — is identical to the unbounded drain.
    """
    seed = shard_seed(task.config.seed, task.index, task.workers)
    hub: TelemetryHub | None = None
    if task.telemetry is not None and task.telemetry.enabled:
        hub = TelemetryHub(task.telemetry)
    if task.attempt < _chaos_fail_count(CHAOS_RAISE_ENV, task.index):
        _dump_flight_recorder(
            hub, task, f"injected chaos failure ({CHAOS_RAISE_ENV})"
        )
        raise ShardExecutionError(
            task.index, task.workers, seed,
            f"injected chaos failure ({CHAOS_RAISE_ENV})",
        )
    if task.attempt < _chaos_fail_count(CHAOS_EXIT_ENV, task.index):
        os._exit(13)
    try:
        return _run_shard_scan(task, seed, hub, event_batch=event_batch)
    except ShardExecutionError as exc:
        _dump_flight_recorder(hub, task, str(exc))
        raise
    except Exception as exc:
        _dump_flight_recorder(hub, task, f"{type(exc).__name__}: {exc}")
        raise ShardExecutionError(
            task.index, task.workers, seed,
            f"{type(exc).__name__}: {exc}",
        ) from exc


def _run_shard_scan(
    task: ShardTask,
    seed: int,
    hub: TelemetryHub | None = None,
    event_batch: int | None = None,
) -> ShardOutcome:
    config = task.config
    profile = profile_for_year(config.year)
    network, hierarchy, population, _, banners, validators = _build_world(
        config, seed, task.population_override
    )
    if hub is not None:
        hub.tracer.clock = lambda: network.scheduler.now
    network.attach_faults(
        build_injector(
            config.fault_profile, config.seed, task.index, task.workers,
            # The shared forwarder upstreams are infrastructure too:
            # blackholing one would silently convert its whole
            # transparent fan-in into unresponsive hosts.
            exempt={
                hierarchy.root.ip, hierarchy.tld.ip, hierarchy.auth.ip,
                PROBER_IP, *profile.forwarder_upstreams,
            },
        )
    )
    universe = _campaign_universe(config)
    if task.workers == 1:
        # The one shard probes the whole universe, which every host
        # was drawn from: no slice to copy, no hosts to pick.
        addresses, local = universe, population
    else:
        addresses = shard_universe(universe, task.index, task.workers)
        local = _hosts_in_slice(population, addresses)
    cluster_base, cluster_limit = cluster_namespace_slice(
        task.index, task.workers
    )
    local.deploy(
        network, auth_ip=hierarchy.auth.ip, version_banners=banners,
        dnssec_validators=validators,
    )
    # The shared upstreams answer relays from *any* shard's transparent
    # hosts, so every shard deploys all of them (they are never probed
    # — TEST-NET-1 is outside the universe — hence never double-counted).
    deploy_forwarder_upstreams(network, profile, hierarchy.auth.ip)
    probe_config = ProbeConfig(
        q1_target=len(addresses),
        rate_pps=profile.probe_rate_pps
        * config.time_compression
        / config.scale
        / task.workers,
        cluster_size=max(50, scale_count(5_000_000, config.scale)),
        reuse_subdomains=config.reuse_subdomains,
        seed=config.seed,
        sld=hierarchy.sld,
        record_sent_log=config.record_sent_log,
        addresses=addresses,
        cluster_base=cluster_base,
        cluster_limit=cluster_limit,
        retry=config.retry_policy(),
    )
    pipeline: StreamPipeline | None = None
    if config.mode == "stream":
        if config.drop_captures:
            probe_config.retain_r2 = False
            hierarchy.auth.retain_query_log = False
        pipeline = StreamPipeline(
            truth_ip=hierarchy.auth.ip,
            source_port=probe_config.source_port,
            response_window=probe_config.response_window,
            upstream_ips=frozenset(profile.forwarder_upstreams),
        )
        pipeline.attach(network)
    hint = local.address_set() if config.fast else None
    prober = Prober(
        network, hierarchy.auth, probe_config, ip=PROBER_IP,
        responder_hint=hint, telemetry=hub,
    )
    if hub is not None:
        hub.attach(
            network,
            auth_ip=hierarchy.auth.ip,
            prober_ip=PROBER_IP,
            source_port=probe_config.source_port,
            response_window=probe_config.response_window,
            upstream_ips=frozenset(profile.forwarder_upstreams),
        )
        hub.add_sampler(
            "scheduler.pending_events", lambda: network.scheduler.pending
        )
        hub.add_sampler(
            "prober.in_flight_batches", lambda: len(prober._in_flight)
        )
        if pipeline is not None:
            hub.add_sampler(
                "stream.live_flows", lambda: pipeline.assembler.live_flows
            )
    # Per-batch hook: fold the sink's batched wire tallies at batch
    # boundaries instead of per packet (their values are only read at
    # heartbeats and snapshots, which flush anyway — this just bounds
    # staleness for live samplers).
    on_batch = None
    if hub is not None and event_batch is not None:
        sink = hub._sink
        if sink is not None:
            on_batch = sink.flush
    with maybe_span(
        hub, "shard", index=task.index, workers=task.workers,
        attempt=task.attempt, seed=seed,
    ):
        capture = prober.run(event_batch=event_batch, on_batch=on_batch)
    if hub is not None:
        hub.detach()
        hub.heartbeat(network.now)  # the final progress mark
        hub.add_fault_window_spans(
            fault_profile(config.fault_profile).plan,
            capture.start_time, network.now,
        )
        hub.finalize_network(network)
        hub.finalize_capture(capture)
    aggregate = stream_stats = None
    if pipeline is not None:
        aggregate = pipeline.finish()
        stream_stats = pipeline.stats
        if hub is not None:
            hub.finalize_stream(stream_stats)
    if config.mode == "stream" and config.drop_captures:
        flow_set = FlowSet(flows={}, unjoinable=[])
        query_log: list[QueryLogEntry] = []
    else:
        # The shard's world dies with this function, so the log needs
        # no defensive copy before shipping. With retention opted out
        # it is not shipped at all.
        query_log = hierarchy.auth.query_log
        flow_set = join_flows(capture.r2_records, query_log)
        if not config.retain_query_log:
            query_log = []
    return ShardOutcome(
        index=task.index,
        capture=capture,
        flow_set=flow_set,
        query_log=query_log,
        aggregate=aggregate,
        stream_stats=stream_stats,
        telemetry=hub.snapshot() if hub is not None else None,
    )


def _start_methods() -> list[str]:
    try:
        return multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return []


def _may_fork(parallelism: str) -> bool:
    """Whether a campaign may start child processes at all.

    ``"process"`` forces children, ``"inline"`` forbids them, ``"auto"``
    allows them when the platform can start processes.
    """
    if parallelism == "inline":
        return False
    return parallelism == "process" or bool(_start_methods())


def _use_processes(parallelism: str, workers: int) -> bool:
    """Whether the rounds of a ``workers``-shard campaign fork children.

    Under ``"auto"`` a one-shard round stays in this process.
    """
    return _may_fork(parallelism) and (
        workers > 1 or parallelism == "process"
    )


class _CensusRun:
    """The campaign's validation census, from its start to its table.

    :meth:`fork` starts it in its own child beside the rounds; without
    one, :meth:`table` runs it in this process when the table is
    needed. Either way ``busy_s`` ends up as the census's CPU seconds,
    and with telemetry on a ``validation_census`` span covers the
    census from its start to its table's arrival.
    """

    def __init__(self, task: CensusTask, hub: TelemetryHub | None) -> None:
        self.task = task
        self.hub = hub
        self.busy_s = 0.0
        self._child = None
        self._span = None

    def _open_span(self) -> None:
        if self.hub is not None:
            self._span = self.hub.tracer.start("validation_census")

    def fork(self) -> None:
        """Start the census in a child; ``OSError`` if it cannot start."""
        from repro.core.multicore import start_child

        self._open_span()
        self._child = start_child(self.task)

    def table(self) -> ValidationTable:
        """The census's table: the child's, or computed here now."""
        if self._child is not None:
            from repro.core.multicore import collect_census

            table, busy = collect_census(self._child)
        else:
            self._open_span()
            busy_start = time.process_time()
            table = validation_census_table(self.task)
            busy = time.process_time() - busy_start
        self.busy_s = round(busy, 6)
        if self._span is not None:
            self.hub.tracer.finish(self._span)
        return table

    def stop(self) -> None:
        """End a forked census whose campaign is failing."""
        if self._child is not None:
            from repro.core.multicore import stop_child

            stop_child(self._child)


def _note_pool_fallback(reason: str, hub: TelemetryHub | None) -> None:
    """Children are about to run in-process — say so, once.

    Called when the validation census or a round cannot start its
    children; from then on the census and every round run in this
    process. The inline result is byte-identical, but the wall-clock
    expectation is not: a user who asked for N workers should know the
    children could not start. Counted on ``campaign.pool_fallbacks``
    when telemetry is on, and surfaced as a one-line RuntimeWarning
    either way.
    """
    if hub is not None:
        hub.registry.counter("campaign.pool_fallbacks").inc()
    warnings.warn(
        f"worker processes unavailable ({reason}); shard round running "
        "inline in one process (results are identical, wall clock is not)",
        RuntimeWarning,
        stacklevel=3,
    )


def _run_round_inline(
    tasks: list[ShardTask], stats: dict
) -> tuple[dict[int, ShardOutcome], dict[int, BaseException]]:
    """Run one round's shard ``tasks`` in this process, one after another."""
    stats["transport"] = "inline"
    outcomes: dict[int, ShardOutcome] = {}
    errors: dict[int, BaseException] = {}
    for task in tasks:
        busy_start = time.process_time()
        try:
            outcomes[task.index] = run_shard(task)
        except Exception as exc:
            errors[task.index] = exc
            continue
        stats["worker_busy_s"][task.index] = round(
            time.process_time() - busy_start, 6
        )
    return outcomes, errors


def run_sharded(
    config,
    population_override: SampledPopulation | None = None,
    parallelism: str = "auto",
    checkpoint_dir=None,
    resume: bool = False,
    telemetry=None,
) -> "CampaignResult":  # noqa: F821
    """Run a campaign as ``config.workers`` shards and merge the results.

    The merged :class:`CampaignResult` carries a live follow-up world —
    the population deployed on a never-scanned network — so follow-up
    scans (fingerprinting, DNSSEC census) work at any worker count.

    ``parallelism`` (see :func:`_use_processes`) picks how each round
    runs its pending shards: in this process through
    :func:`run_shard`, or in forked children through
    :func:`repro.core.multicore.run_multicore`. With ``config.dnssec``
    the validation census (:func:`validation_census_table`) runs
    beside the rounds in a child of its own, started once the world is
    primed, whenever ``parallelism`` may fork (:func:`_may_fork`), one
    worker included; its table is collected after the last round and
    before the analysis. If children cannot start, ``"auto"`` warns
    once, counts ``campaign.pool_fallbacks`` and runs the census and
    every remaining round inline; ``"process"`` re-raises. Whether the
    campaign returns or raises, no child outlives this call.

    Failure domains: a shard that raises or whose worker dies is
    requeued with the same seed up to ``config.max_shard_retries``
    times (the re-run is byte-identical, so recovery cannot skew the
    tables). With ``checkpoint_dir`` every completed shard is persisted
    as it lands and ``resume=True`` re-executes only the shards missing
    from that directory. Shards that exhaust their retries are recorded
    in the result's ``degraded`` manifest — which shards, how many
    probes went unexecuted — instead of raising; only a campaign with
    *zero* surviving shards raises :class:`ShardExecutionError`.

    ``telemetry`` (a :class:`~repro.telemetry.hub.TelemetryConfig` or
    :class:`~repro.telemetry.hub.TelemetryHub`) instruments every
    shard: each runs its own hub and ships a mergeable snapshot back on
    its outcome; the parent folds them (counters add, shard spans nest
    under the parent trace, heartbeats are shard-tagged) and the merged
    snapshot lands on ``result.telemetry``. A failing shard with a
    configured ``flight_dump_dir`` dumps its flight recorder.

    The result's ``engine_stats`` records the transport (``inline`` or
    ``pipe``), rounds, frames and bytes shipped, per shard its CPU-busy
    seconds and probe count, and the census's CPU seconds wherever it
    ran (``census_busy_s``, 0.0 with ``dnssec`` off). The census is not
    a shard: its message is no frame and ships no counted bytes.
    """
    if parallelism not in ("auto", "process", "inline"):
        raise ValueError(f"unknown parallelism mode: {parallelism!r}")
    hub = as_hub(telemetry)
    workers = config.workers
    cluster_namespace_slice(0, workers)  # reject impossible splits up front
    fingerprint = checkpoint_fingerprint(config)
    completed: dict[int, ShardOutcome] = {}
    if resume:
        if checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        from repro.datasets.store import load_shard_checkpoints

        completed = {
            index: outcome
            for index, outcome in load_shard_checkpoints(
                checkpoint_dir, fingerprint
            ).items()
            if 0 <= index < workers
        }
    if checkpoint_dir is not None:
        from repro.datasets.store import save_shard_checkpoint

    use_processes = _use_processes(parallelism, workers)
    census = (
        _CensusRun(CensusTask(config, population_override), hub)
        if config.dnssec else None
    )
    fork_census = census is not None and _may_fork(parallelism)
    if (use_processes or fork_census) and population_override is None:
        # Fork children inherit the primed universe walk and sampled
        # world instead of each paying the O(universe) setup again.
        prime_shard_caches(config)
    if fork_census:
        try:
            census.fork()
        except OSError as exc:
            if parallelism == "process":
                raise
            _note_pool_fallback(f"{type(exc).__name__}: {exc}", hub)
            use_processes = False
    pending = [index for index in range(workers) if index not in completed]
    attempts = dict.fromkeys(pending, 0)
    failures: dict[int, tuple[int, BaseException]] = {}
    stats: dict = {
        "transport": None,
        "workers": workers,
        "rounds": 0,
        "resumed_shards": len(completed),
        "frames": 0,
        "bytes_shipped": 0,
        "worker_busy_s": {},
        "worker_q1": {},
        "census_busy_s": 0.0,
    }
    telemetry_config = hub.config if hub is not None else None
    try:
        with maybe_span(
            hub, "shard_execution", workers=workers,
            resumed=len(completed), pending=len(pending),
        ):
            while pending:
                stats["rounds"] += 1
                tasks = [
                    ShardTask(
                        config=config,
                        index=index,
                        workers=workers,
                        population_override=population_override,
                        attempt=attempts[index],
                        telemetry=telemetry_config,
                    )
                    for index in pending
                ]
                if use_processes:
                    from repro.core.multicore import run_multicore

                    try:
                        outcomes, errors = run_multicore(tasks, stats)
                    except OSError as exc:
                        if parallelism == "process":
                            raise
                        _note_pool_fallback(
                            f"{type(exc).__name__}: {exc}", hub
                        )
                        use_processes = False
                if not use_processes:
                    outcomes, errors = _run_round_inline(tasks, stats)
                for index in sorted(outcomes):
                    completed[index] = outcomes[index]
                    if checkpoint_dir is not None:
                        save_shard_checkpoint(
                            checkpoint_dir, fingerprint, index,
                            outcomes[index],
                        )
                requeue = []
                for index in sorted(errors):
                    if index in outcomes:
                        continue  # a retry raced a late frame; outcome wins
                    attempts[index] += 1
                    if hub is not None:
                        hub.registry.counter(
                            "campaign.shard_attempts_failed"
                        ).inc()
                    if attempts[index] > config.max_shard_retries:
                        failures[index] = (attempts[index], errors[index])
                    else:
                        requeue.append(index)
                pending = sorted(requeue)
            if hub is not None:
                # Fold every shard's snapshot (resumed checkpoints
                # included; pre-telemetry checkpoints lack the
                # attribute entirely).
                for index in sorted(completed):
                    hub.merge_snapshot(
                        getattr(completed[index], "telemetry", None),
                        shard=index,
                    )
        result = finalize_outcomes(
            config, completed, failures, population_override, hub, census
        )
    except BaseException:
        # Every shard failed, a round could not start, or an interrupt:
        # the census child must not outlive the campaign.
        if census is not None:
            census.stop()
        raise
    stats["worker_q1"] = {
        index: completed[index].capture.q1_sent for index in sorted(completed)
    }
    if census is not None:
        stats["census_busy_s"] = census.busy_s
    result.engine_stats = stats
    return result


def finalize_outcomes(
    config,
    completed: dict[int, ShardOutcome],
    failures: dict[int, tuple[int, BaseException]],
    population_override: SampledPopulation | None = None,
    hub: TelemetryHub | None = None,
    census: _CensusRun | None = None,
) -> "CampaignResult":  # noqa: F821
    """Merge completed shard outcomes into a :class:`CampaignResult`.

    Whatever carried the outcomes — a return value, a message on a
    worker's pipe, a checkpoint on disk — the merge, the follow-up
    world, the analysis dispatch and the degraded-manifest accounting
    are this one function. The validation ``census`` (required with
    ``config.dnssec``) hands over its table after the merge and the
    follow-up world, just before the analysis reads it.
    """
    from repro.core.campaign import (
        Campaign,
        DegradedManifest,
        ShardFailureRecord,
    )

    workers = config.workers
    if not completed:
        index, (tries, error) = sorted(failures.items())[0]
        raise ShardExecutionError(
            index, workers, shard_seed(config.seed, index, workers),
            f"all {workers} shard(s) failed after {tries} attempt(s); "
            f"first error: {error}",
        )

    outcomes = [completed[index] for index in sorted(completed)]
    with maybe_span(hub, "merge", shards=len(outcomes)):
        capture = merge_captures([outcome.capture for outcome in outcomes])
        if config.time_compression != 1.0:
            capture = dataclasses.replace(
                capture,
                end_time=capture.start_time
                + capture.duration * config.time_compression,
            )
        flow_set = merge_flow_sets([outcome.flow_set for outcome in outcomes])
        query_log = [
            entry for outcome in outcomes for entry in outcome.query_log
        ]
    with maybe_span(hub, "build_parent_world"):
        network, hierarchy, population, software_map, banners, validators = (
            _build_world(config, config.seed, population_override)
        )
        population.deploy(
            network, auth_ip=hierarchy.auth.ip, version_banners=banners,
            dnssec_validators=validators,
        )
        # Follow-up scans against this world (fingerprinting, the
        # DNSSEC censuses) must see the forwarder upstreams too.
        deploy_forwarder_upstreams(
            network, population.profile, hierarchy.auth.ip
        )
    validation_table = census.table() if census is not None else None
    campaign = Campaign(config)
    with maybe_span(hub, "analyze", mode=config.mode):
        if config.mode == "stream":
            # merge_aggregates folds into its first element; outcomes are
            # fresh per run, so the mutation is private. Index order is
            # cosmetic — the merge laws make any order byte-identical.
            aggregate = merge_aggregates(
                [outcome.aggregate for outcome in outcomes]
            )
            stream_stats = StreamStats()
            for outcome in outcomes:
                stream_stats.merge(outcome.stream_stats)
            result = campaign._analyze_stream(
                population, hierarchy, network, software_map, validators,
                capture, flow_set, aggregate, stream_stats,
                validation_table=validation_table, query_log=query_log,
            )
        else:
            result = campaign._analyze(
                population, hierarchy, network, software_map, validators,
                capture, flow_set, validation_table=validation_table,
                query_log=query_log,
            )
    if hub is not None:
        hub.registry.counter("campaign.shards_completed").inc(len(outcomes))
        hub.registry.counter("campaign.shards_failed").inc(len(failures))
        result.telemetry = hub.snapshot()
    if failures:
        universe = _campaign_universe(config)
        records = [
            ShardFailureRecord(
                index=index,
                seed=shard_seed(config.seed, index, workers),
                attempts=tries,
                probes_lost=len(shard_universe(universe, index, workers)),
                error=str(error),
            )
            for index, (tries, error) in sorted(failures.items())
        ]
        result.degraded = DegradedManifest(
            failed_shards=records,
            probes_planned=len(universe),
            probes_lost=sum(record.probes_lost for record in records),
        )
    return result
