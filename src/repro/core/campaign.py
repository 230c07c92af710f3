"""The end-to-end measurement campaign.

One :class:`Campaign` reproduces one of the paper's scans at a chosen
``scale``: it builds the DNS hierarchy, samples and deploys the
calibrated resolver population, runs the ZMap-style prober over the
scaled address space, joins the Q1/Q2/R1/R2 flows, and computes every
table of the evaluation section. ``run_both_years`` then reproduces
the temporal contrast.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.compare import TemporalComparison, compare_years
from repro.analysis.correctness import measure_correctness
from repro.analysis.empty_question import EmptyQuestionDetail, measure_empty_question
from repro.analysis.headers import (
    measure_flag_table,
    measure_open_resolver_estimates,
    measure_rcode_table,
)
from repro.analysis.incorrect import measure_incorrect_forms, measure_top_destinations
from repro.analysis.malicious import (
    measure_country_distribution,
    measure_malicious_categories,
    measure_malicious_flags,
)
from repro.analysis.forwarders import measure_forwarders
from repro.analysis.report import (
    render_correctness,
    render_country_distribution,
    render_empty_question,
    render_flag_table,
    render_forwarder_table,
    render_incorrect_forms,
    render_malicious_categories,
    render_malicious_flags,
    render_probe_summary,
    render_rcode_table,
    render_top_destinations,
    render_validation_table,
)
from repro.analysis.summary import extrapolate, measure_probe_summary
from repro.attacks.matrix import AttackMatrix
from repro.attacks.report import render_attack_matrix
from repro.core.shard import _campaign_universe, run_sharded
from repro.dnssrv.hierarchy import Hierarchy
from repro.netsim.faults import fault_profile
from repro.netsim.network import Network
from repro.prober.capture import FlowSet
from repro.prober.probe import ProbeCapture, RetryPolicy
from repro.resolvers.population import SampledPopulation
from repro.resolvers.profiles import YearProfile, profile_for_year
from repro.stats import (
    CorrectnessTable,
    FlagTable,
    ForwarderTable,
    IncorrectFormsTable,
    MaliciousCategoryTable,
    MaliciousFlagTable,
    OpenResolverEstimates,
    ProbeSummary,
    RcodeTable,
    TopDestinationRow,
    ValidationTable,
)
from repro.stream.aggregate import TableAggregate
from repro.stream.assembler import StreamStats
from repro.telemetry.hub import TelemetrySnapshot, as_hub, maybe_span


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one campaign run.

    ``scale`` subsamples the Internet 1/scale (population, probe count
    and probe rate all shrink together, so the scan *duration* matches
    the paper's). ``time_compression`` speeds the simulated clock by
    sending proportionally faster — useful for the week-long 2013 scan
    — and is divided back out of the reported duration.
    ``fast`` enables the responder-hint accelerator (see
    :class:`repro.prober.probe.Prober`); measurements are identical
    either way, covered by tests.

    ``workers`` shards the scan across that many independent
    simulations (see :mod:`repro.core.shard`); at ``loss_rate == 0``
    every worker count renders identical Tables II–X for the same
    ``(seed, scale, year)``.

    ``fault_profile`` names a :data:`repro.netsim.faults.FAULT_PROFILES`
    entry (``none`` / ``bursty`` / ``hostile``): bursty loss, latency
    spikes, duplication/reordering and per-address blackholes, plus the
    Q1 retransmission policy tuned for that regime. ``max_shard_retries``
    is how many times a crashed/killed shard worker is requeued (with
    the same derived seed, so the re-run is byte-identical) before the
    campaign gives the shard up and reports it in the result's
    ``degraded`` manifest.

    ``mode="stream"`` computes Tables II–X through the event-driven
    :mod:`repro.stream` pipeline — identical bytes, bounded memory (see
    DESIGN.md §7). ``drop_captures`` (streaming only) additionally stops
    retaining raw ``R2Record``s and the auth ``query_log``, so peak
    memory is O(distinct destinations + in-flight flows) instead of
    O(probes); the result then carries an empty ``flow_set``/``capture
    .r2_records``/``query_log``, tables only. ``retain_query_log=False``
    still joins the log into the flows but keeps it off the result —
    for callers that never persist it.
    """

    year: int = 2018
    scale: int = 4096
    seed: int = 0
    fast: bool = True
    time_compression: float = 1.0
    reuse_subdomains: bool = True
    latency_median: float = 0.04
    record_sent_log: bool = False
    fingerprinting: bool = True
    dnssec: bool = True
    loss_rate: float = 0.0
    workers: int = 1
    fault_profile: str = "none"
    max_shard_retries: int = 1
    mode: str = "batch"
    drop_captures: bool = False
    retain_query_log: bool = True
    #: Kept only because callers still pass it: every campaign runs on
    #: the one engine, :func:`repro.core.shard.run_sharded`, so
    #: ``"multicore"`` is the only value. Excluded from the checkpoint
    #: fingerprint.
    engine: str = "multicore"
    #: Run the adversarial workload suite (:mod:`repro.attacks`) and
    #: attach the attack × defense matrix to the result. Default-off:
    #: Tables II–X are byte-identical with or without it — the matrix
    #: runs on its own derived-seed networks (lane 0xA77C) and never
    #: touches the scan simulation.
    attack_suite: bool = False
    #: With ``attack_suite``: extend the defense ladder with the policy
    #: (filtering-resolver) rung. Default-off so existing matrix and
    #: report pins never move; the extra cells use their own stable
    #: posture lane and leave the original sixteen untouched.
    attack_policy: bool = False

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.time_compression <= 0:
            raise ValueError("time_compression must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be non-negative")
        if self.mode not in ("batch", "stream"):
            raise ValueError(f"mode must be 'batch' or 'stream': {self.mode!r}")
        if self.drop_captures and self.mode != "stream":
            raise ValueError(
                "drop_captures requires mode='stream': the batch analyzers "
                "read the retained captures"
            )
        if self.engine != "multicore":
            raise ValueError(f"engine must be 'multicore': {self.engine!r}")
        fault_profile(self.fault_profile)  # reject unknown names up front

    def retry_policy(self) -> RetryPolicy:
        """The Q1 retransmission policy of this config's fault profile."""
        profile = fault_profile(self.fault_profile)
        return RetryPolicy(
            max_retries=profile.retry_max,
            timeout=profile.retry_timeout,
            backoff=profile.retry_backoff,
        )


@dataclasses.dataclass(frozen=True)
class ShardFailureRecord:
    """One shard that exhausted its retries and was abandoned."""

    index: int
    seed: int
    attempts: int
    probes_lost: int
    error: str


@dataclasses.dataclass
class DegradedManifest:
    """What a partially-failed sharded campaign could not measure.

    Attached to :class:`CampaignResult` instead of raising: a week-long
    scan that loses one worker still produced six sevenths of the
    Internet, and the analysis pipeline runs fine over the surviving
    shards — the manifest makes the coverage gap explicit so no one
    mistakes a degraded run for a complete one.
    """

    failed_shards: list[ShardFailureRecord]
    probes_planned: int
    probes_lost: int

    @property
    def probes_completed(self) -> int:
        return self.probes_planned - self.probes_lost

    @property
    def coverage(self) -> float:
        """Fraction of planned probes actually executed."""
        if self.probes_planned == 0:
            return 1.0
        return self.probes_completed / self.probes_planned

    def summary(self) -> str:
        shards = ", ".join(
            f"#{record.index} ({record.attempts} attempts: {record.error})"
            for record in self.failed_shards
        )
        return (
            f"DEGRADED: {len(self.failed_shards)} shard(s) lost [{shards}]; "
            f"{self.probes_lost:,} of {self.probes_planned:,} probes "
            f"unexecuted (coverage {self.coverage:.2%})"
        )


@dataclasses.dataclass
class CampaignResult:
    """Everything a campaign produced, tables included."""

    config: CampaignConfig
    profile: YearProfile
    population: SampledPopulation
    #: The follow-up world: the population deployed on a never-scanned
    #: network, for follow-up scans (fingerprinting, DNSSEC census).
    #: The scan's own auth log is ``query_log``.
    hierarchy: Hierarchy
    network: Network
    software_map: dict[str, object]
    dnssec_validators: set[str]
    capture: ProbeCapture
    flow_set: FlowSet
    probe_summary: ProbeSummary
    correctness: CorrectnessTable
    ra_table: FlagTable
    aa_table: FlagTable
    rcode_table: RcodeTable
    estimates: OpenResolverEstimates
    empty_question: EmptyQuestionDetail
    incorrect_forms: IncorrectFormsTable
    top_destinations: list[TopDestinationRow]
    malicious_categories: MaliciousCategoryTable
    malicious_flags: MaliciousFlagTable
    country_distribution: dict[str, int]
    #: Transparent-forwarder census: on-path vs off-path R2 split and
    #: per-upstream fan-in (batch: :func:`measure_forwarders` over the
    #: send-time target log; stream: folded online). None only for
    #: results built before the census existed (old pickles).
    forwarder_table: ForwarderTable | None = None
    #: Bogus-probe validation census (``config.dnssec`` only): who
    #: blocks a deliberately broken RRSIG while resolving the control
    #: name. Computed on its own derived-seed network, so it is
    #: byte-identical across serial/sharded/stream/resume runs.
    validation_table: ValidationTable | None = None
    #: Attack × defense matrix (``config.attack_suite`` only): the
    #: adversarial workload suite's measurements, computed like the
    #: validation census on dedicated derived-seed networks — a pure
    #: function of mode-invariant config knobs, byte-identical across
    #: serial/sharded/stream/resume runs.
    attack_matrix: AttackMatrix | None = None
    #: The auth-side Q2/R1 capture, merged across shards.
    query_log: list = dataclasses.field(default_factory=list)
    #: Set when a campaign lost shards past their retry budget; None
    #: means full coverage.
    degraded: DegradedManifest | None = None
    #: Streaming-pipeline observability (``mode="stream"`` only): event
    #: counts, flows opened/evicted, peak live flows. Deliberately not
    #: part of :meth:`summary`/:meth:`report` — those bytes must match
    #: the batch path.
    stream_stats: StreamStats | None = None
    #: Telemetry snapshot (``run(telemetry=...)`` only): merged
    #: counters/gauges/histograms, phase spans and per-shard
    #: heartbeats. Like ``stream_stats``, never part of
    #: :meth:`summary`/:meth:`report` — those bytes must not depend on
    #: whether the campaign was being watched.
    telemetry: TelemetrySnapshot | None = None
    #: Execution accounting, set on every run: transport (``inline`` or
    #: ``pipe``), per-shard CPU-busy seconds and probe
    #: counts, frames and bytes shipped, rounds run. Pure observability
    #: — never part of :meth:`summary`/:meth:`report`.
    engine_stats: dict | None = None

    @property
    def year(self) -> int:
        return self.config.year

    @property
    def scale(self) -> int:
        return self.config.scale

    def extrapolated_summary(self) -> ProbeSummary:
        """Table II magnitudes scaled back up to the full Internet."""
        return extrapolate(self.probe_summary, self.config.scale)

    def summary(self) -> str:
        """A short human-readable campaign summary."""
        full = self.extrapolated_summary()
        text = (
            f"[{self.year}] scanned {self.probe_summary.q1:,} addresses "
            f"(1/{self.scale} of {full.q1:,}) in {self.probe_summary.duration_text}; "
            f"R2={self.probe_summary.r2:,} ({self.probe_summary.r2_share:.4f}%), "
            f"Q2/R1={self.probe_summary.q2_r1:,}; "
            f"open resolvers (RA=1 & correct): {self.estimates.ra_and_correct:,} "
            f"(~{self.estimates.ra_and_correct * self.scale:,} full-scale); "
            f"incorrect answers: {self.correctness.incorrect:,}; "
            f"malicious R2: {self.malicious_categories.total_r2:,}."
        )
        if self.degraded is not None:
            text += f"\n{self.degraded.summary()}"
        return text

    def report(self) -> str:
        """The full multi-table text report for this year."""
        year = self.year
        sections = [
            f"=== Campaign report: {year} (scale 1/{self.scale}, seed "
            f"{self.config.seed}) ===",
            self.summary(),
            "",
            render_probe_summary([self.probe_summary], title="Table II (measured, scaled)"),
            render_probe_summary(
                [self.extrapolated_summary()], title="Table II (extrapolated)"
            ),
            render_correctness({year: self.correctness}),
            render_flag_table({year: self.ra_table}),
            render_flag_table({year: self.aa_table}),
            render_rcode_table({year: self.rcode_table}),
            render_empty_question(self.empty_question.summary),
            render_incorrect_forms({year: self.incorrect_forms}),
            render_top_destinations(self.top_destinations),
            render_malicious_categories({year: self.malicious_categories}),
            render_malicious_flags(self.malicious_flags),
            render_country_distribution(self.country_distribution),
        ]
        if self.forwarder_table is not None:
            sections.append(render_forwarder_table(self.forwarder_table))
        if self.validation_table is not None:
            sections.append(
                render_validation_table({year: self.validation_table})
            )
        if self.attack_matrix is not None:
            sections.append(render_attack_matrix(self.attack_matrix))
        return "\n\n".join(sections)


class Campaign:
    """Builds the world and runs the scan for one year."""

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = config if config is not None else CampaignConfig()
        self.profile = profile_for_year(self.config.year)

    def build_universe(self) -> list[int]:
        """The scaled universe: exactly the addresses the prober will walk.

        The list is the one every shard slices (memoised per seed,
        year and scale); callers must not mutate it.
        """
        return _campaign_universe(self.config)

    def run(
        self,
        population_override: SampledPopulation | None = None,
        workers: int | None = None,
        checkpoint_dir=None,
        resume_from=None,
        telemetry=None,
    ) -> CampaignResult:
        """Run the campaign through :func:`repro.core.shard.run_sharded`.

        A one-worker campaign is one shard run in this process; any
        more shards run in forked workers. Every worker count renders
        byte-identical tables at ``loss_rate == 0``.

        ``population_override`` substitutes a pre-built population —
        used by :mod:`repro.monitor` to re-scan an evolved world. Its
        hosts must live inside this campaign's universe (e.g. produced
        by evolving a population sampled with the same seed/scale).

        ``workers`` overrides the config's worker count for this run.

        ``checkpoint_dir`` persists each completed shard to disk as it
        finishes; ``resume_from`` loads such a directory, re-executes
        only the shards missing from it, and keeps checkpointing there.
        A resumed run must use the same (seed, scale, year, workers,
        fault profile) — the checkpoint manifest enforces this.

        ``telemetry`` switches on the observability layer
        (:mod:`repro.telemetry`): pass a
        :class:`~repro.telemetry.hub.TelemetryConfig` or a ready
        :class:`~repro.telemetry.hub.TelemetryHub`; the result then
        carries a :class:`~repro.telemetry.hub.TelemetrySnapshot` on
        ``result.telemetry``. Tables are byte-identical either way —
        telemetry observes the wire, it never touches the simulation.
        With the default ``None`` nothing attaches and the hot path is
        exactly the untelemetered one.
        """
        config = self.config
        if workers is not None and workers != config.workers:
            config = dataclasses.replace(config, workers=workers)
        hub = as_hub(telemetry)
        with maybe_span(
            hub, "campaign", year=config.year, scale=config.scale,
            seed=config.seed, mode=config.mode, workers=config.workers,
        ):
            result = run_sharded(
                config,
                population_override=population_override,
                checkpoint_dir=checkpoint_dir if checkpoint_dir is not None
                else resume_from,
                resume=resume_from is not None,
                telemetry=hub,
            )
        if hub is not None:
            result.telemetry = hub.snapshot()
        return result

    def _analyze(
        self,
        population: SampledPopulation,
        hierarchy: Hierarchy,
        network: Network,
        software_map: dict[str, object],
        dnssec_validators: set[str],
        capture: ProbeCapture,
        flow_set: FlowSet,
        query_log: list | None = None,
    ) -> CampaignResult:
        truth = hierarchy.auth.ip
        views = flow_set.views
        return CampaignResult(
            forwarder_table=measure_forwarders(flow_set, capture.targets),
            validation_table=self._validation_table(
                population, dnssec_validators
            ),
            attack_matrix=self._attack_matrix(),
            config=self.config,
            profile=self.profile,
            population=population,
            hierarchy=hierarchy,
            network=network,
            software_map=software_map,
            dnssec_validators=dnssec_validators,
            capture=capture,
            flow_set=flow_set,
            probe_summary=measure_probe_summary(
                self.config.year, capture, flow_set
            ),
            correctness=measure_correctness(views, truth),
            ra_table=measure_flag_table(views, truth, "ra"),
            aa_table=measure_flag_table(views, truth, "aa"),
            rcode_table=measure_rcode_table(views),
            estimates=measure_open_resolver_estimates(views, truth),
            empty_question=measure_empty_question(flow_set.unjoinable),
            incorrect_forms=measure_incorrect_forms(views, truth),
            top_destinations=measure_top_destinations(
                views, truth, population.whois, population.cymon
            ),
            malicious_categories=measure_malicious_categories(
                views, truth, population.cymon
            ),
            malicious_flags=measure_malicious_flags(
                views, truth, population.cymon
            ),
            country_distribution=measure_country_distribution(
                views, truth, population.cymon, population.geo
            ),
            query_log=query_log if query_log is not None else [],
        )

    def _analyze_stream(
        self,
        population: SampledPopulation,
        hierarchy: Hierarchy,
        network: Network,
        software_map: dict[str, object],
        dnssec_validators: set[str],
        capture: ProbeCapture,
        flow_set: FlowSet,
        aggregate: TableAggregate,
        stream_stats: StreamStats,
        query_log: list | None = None,
    ) -> CampaignResult:
        """Build the result from folded accumulators instead of views.

        Finalizes every table from the :class:`TableAggregate`; the
        golden equivalence tests pin each one byte-identical to
        :meth:`_analyze` over the same scan.
        """
        return CampaignResult(
            forwarder_table=aggregate.forwarder_table(),
            validation_table=self._validation_table(
                population, dnssec_validators
            ),
            attack_matrix=self._attack_matrix(),
            config=self.config,
            profile=self.profile,
            population=population,
            hierarchy=hierarchy,
            network=network,
            software_map=software_map,
            dnssec_validators=dnssec_validators,
            capture=capture,
            flow_set=flow_set,
            probe_summary=ProbeSummary(
                year=self.config.year,
                duration_seconds=capture.duration,
                q1=capture.q1_sent,
                q2_r1=aggregate.q2_total,
                r2=aggregate.r2_total,
            ),
            correctness=aggregate.correctness_table(),
            ra_table=aggregate.flag_table("ra"),
            aa_table=aggregate.flag_table("aa"),
            rcode_table=aggregate.rcode_table(),
            estimates=aggregate.estimates(),
            empty_question=aggregate.empty_question(),
            incorrect_forms=aggregate.incorrect_forms(),
            top_destinations=aggregate.top_destinations(
                population.whois, population.cymon
            ),
            malicious_categories=aggregate.malicious_categories(
                population.cymon
            ),
            malicious_flags=aggregate.malicious_flags(population.cymon),
            country_distribution=aggregate.country_distribution(
                population.cymon, population.geo
            ),
            query_log=query_log if query_log is not None else [],
            stream_stats=stream_stats,
        )

    def _validation_table(
        self,
        population: SampledPopulation,
        dnssec_validators: set[str],
    ) -> ValidationTable | None:
        """The bogus-probe census table, when DNSSEC probing is on.

        Runs on its own derived-seed network
        (:func:`repro.dnssec.validation.run_validation_census`), a pure
        function of ``(year, seed, latency_median, loss_rate,
        fault_profile)`` and the population — so every execution mode
        of the same campaign reports the same bytes.
        """
        if not self.config.dnssec:
            return None
        from repro.dnssec.validation import run_validation_census

        census = run_validation_census(
            self.config, population, dnssec_validators or None
        )
        return census.table()

    def _attack_matrix(self) -> AttackMatrix | None:
        """The adversarial suite's matrix, when ``attack_suite`` is on.

        Like the validation census, a pure function of mode-invariant
        knobs (``seed``, ``latency_median``): serial, sharded,
        streaming and resumed executions of the same campaign config
        all render the identical matrix. Both ``_analyze`` variants
        call this, which is exactly the merge path every execution
        mode funnels through.
        """
        if not self.config.attack_suite:
            return None
        from repro.attacks.defense import postures_with_policy
        from repro.attacks.matrix import AttackSuiteConfig, run_attack_matrix

        suite_kwargs = dict(
            seed=self.config.seed,
            latency_median=self.config.latency_median,
        )
        if self.config.attack_policy:
            suite_kwargs["postures"] = postures_with_policy()
        return run_attack_matrix(AttackSuiteConfig(**suite_kwargs))


def run_both_years(
    scale: int = 4096,
    seed: int = 0,
    time_compression_2013: float = 32.0,
) -> tuple[CampaignResult, CampaignResult, TemporalComparison]:
    """Run 2013 and 2018 and build the paper's temporal contrast.

    The 2013 scan took the paper seven days of wall clock; its simulated
    clock is compressed by default so both campaigns finish promptly.
    """
    result_2013 = Campaign(
        CampaignConfig(
            year=2013, scale=scale, seed=seed,
            time_compression=time_compression_2013,
        )
    ).run()
    result_2018 = Campaign(
        CampaignConfig(year=2018, scale=scale, seed=seed)
    ).run()
    comparison = compare_years(
        result_2013.correctness,
        result_2018.correctness,
        result_2013.estimates,
        result_2018.estimates,
        result_2013.malicious_categories,
        result_2018.malicious_categories,
    )
    return result_2013, result_2018, comparison
