"""The ``repro`` command-line interface.

Commands::

    scan         run one year's campaign, print the report, optionally
                 save the dataset directory
    analyze      re-run the table pipeline offline over a saved dataset
    compare      run (or load) both years and print the temporal contrast
    fingerprint  version.bind census over a campaign's responders
    monitor      multi-epoch continuous monitoring with churn
    exposure     client-workload exposure to manipulating resolvers
    amplify      amplification factors and a spoofed-source attack demo
    attack       adversarial workload suite (NXNS / water torture /
                 reflection) against the defense-posture ladder
    serve        run a resolver profile live on a real UDP port
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Where Are You Taking Me? Behavioral Analysis "
            "of Open DNS Resolvers' (DSN 2019)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run one measurement campaign")
    scan.add_argument("--year", type=int, default=2018, choices=(2013, 2018))
    scan.add_argument("--scale", type=int, default=8192)
    scan.add_argument("--seed", type=int, default=7)
    scan.add_argument("--compression", type=float, default=None,
                      help="simulated-clock compression (default: 1 for "
                      "2018, 64 for the week-long 2013 scan)")
    scan.add_argument("--workers", type=int, default=1,
                      help="shard the scan across N parallel simulations "
                      "(identical tables at any worker count)")
    scan.add_argument("--fault-profile", default="none",
                      choices=("none", "bursty", "hostile"),
                      help="inject network faults: bursty (Gilbert-Elliott "
                      "loss) or hostile (loss + latency spikes + "
                      "duplication + reordering + blackholes); both enable "
                      "Q1 retransmission")
    scan.add_argument("--stream", action="store_true",
                      help="aggregate flows as the scan runs (bounded "
                      "memory; tables byte-identical to the batch path)")
    scan.add_argument("--drop-captures", action="store_true",
                      help="with --stream: do not retain raw R2 records "
                      "or the auth query log — tables only, peak memory "
                      "O(resolvers + in-flight flows)")
    scan.add_argument("--max-shard-retries", type=int, default=2,
                      metavar="N",
                      help="requeue a crashed shard worker up to N times "
                      "(same seed, byte-identical re-run) before declaring "
                      "the campaign degraded")
    scan.add_argument("--checkpoint", metavar="DIR", default=None,
                      help="persist each completed shard to DIR as it "
                      "finishes")
    scan.add_argument("--resume", metavar="DIR", default=None,
                      help="resume from a checkpoint DIR: re-execute only "
                      "the missing shards (config must match the one that "
                      "wrote the checkpoints)")
    scan.add_argument("--metrics-out", metavar="FILE", default=None,
                      help="enable telemetry and write the metrics "
                      "document (counters, gauges, histograms, "
                      "heartbeats) to FILE as JSON")
    scan.add_argument("--trace-out", metavar="FILE", default=None,
                      help="enable telemetry and write the campaign "
                      "phase trace (nested spans) to FILE as JSON")
    scan.add_argument("--flight-dir", metavar="DIR", default=None,
                      help="enable telemetry and dump a failing "
                      "shard's flight-recorder window (last-N wire "
                      "events) to DIR for post-mortem")
    scan.add_argument("--save", metavar="DIR", default=None,
                      help="save the dataset to DIR")
    scan.add_argument("--markdown", metavar="FILE", default=None,
                      help="write a standalone markdown report to FILE")
    scan.add_argument("--full-report", action="store_true",
                      help="print every table, not just the summary")
    scan.add_argument("--attack-policy", action="store_true",
                      help="with --attacks: add the policy "
                      "(filtering-resolver) rung to the defense ladder")
    scan.add_argument("--attacks", action="store_true",
                      help="also run the adversarial workload suite and "
                      "report the attack x defense matrix")
    scan.add_argument("--min-coverage", type=float, default=None,
                      metavar="FRAC",
                      help="exit with code 3 when shard coverage falls "
                      "below FRAC (a degraded manifest alone already "
                      "exits 3)")

    analyze = sub.add_parser("analyze", help="offline analysis of a dataset")
    analyze.add_argument("dataset", help="directory written by 'scan --save'")

    compare = sub.add_parser("compare", help="2013-vs-2018 temporal contrast")
    compare.add_argument("--scale", type=int, default=4096)
    compare.add_argument("--seed", type=int, default=7)

    fingerprint = sub.add_parser(
        "fingerprint", help="version.bind census of the responders"
    )
    fingerprint.add_argument("--year", type=int, default=2018,
                             choices=(2013, 2018))
    fingerprint.add_argument("--scale", type=int, default=8192)
    fingerprint.add_argument("--seed", type=int, default=7)

    monitor = sub.add_parser("monitor", help="continuous monitoring loop")
    monitor.add_argument("--epochs", type=int, default=3)
    monitor.add_argument("--scale", type=int, default=16384)
    monitor.add_argument("--seed", type=int, default=7)
    monitor.add_argument("--death-rate", type=float, default=0.08)
    monitor.add_argument("--birth-rate", type=float, default=0.06)
    monitor.add_argument("--change-rate", type=float, default=0.03)

    exposure = sub.add_parser(
        "exposure", help="client exposure to manipulating resolvers"
    )
    exposure.add_argument("--clients", type=int, default=200)
    exposure.add_argument("--queries", type=int, default=10)
    exposure.add_argument("--resolvers", type=int, default=40)
    exposure.add_argument("--malicious-share", type=float, default=0.05)
    exposure.add_argument("--seed", type=int, default=7)

    amplify = sub.add_parser("amplify", help="amplification quantification")
    amplify.add_argument("--resolvers", type=int, default=25)
    amplify.add_argument("--rounds", type=int, default=4)

    attack = sub.add_parser(
        "attack",
        help="adversarial workload suite: NXNS, water torture and "
        "reflection vs the defense-posture ladder",
    )
    attack.add_argument("--seed", type=int, default=7)
    attack.add_argument("--resolvers", type=int, default=6)
    attack.add_argument("--fanout", type=int, default=12,
                        help="glueless NS names per NXNS referral")
    attack.add_argument("--attack-queries", type=int, default=96,
                        help="flood size for single-source families")
    attack.add_argument("--families", default=None,
                        help="comma-separated subset of "
                        "nxns,water_torture,reflection (default: all)")
    attack.add_argument("--with-policy", action="store_true",
                        help="add the policy (filtering-resolver) rung "
                        "to the defense-posture ladder")
    attack.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write attack telemetry counters to FILE "
                        "as JSON")
    attack.add_argument("--markdown", metavar="FILE", default=None,
                        help="write the matrix as a markdown report to "
                        "FILE")

    dnssec = sub.add_parser(
        "dnssec", help="DNSSEC validator census over the responders"
    )
    dnssec.add_argument("--year", type=int, default=2018, choices=(2013, 2018))
    dnssec.add_argument("--scale", type=int, default=8192)
    dnssec.add_argument("--seed", type=int, default=7)
    dnssec.add_argument("--validation", action="store_true",
                        help="also run the bogus-RRSIG validation-behavior "
                        "probe: who blocks a name with a broken signature "
                        "while answering the valid control")

    classify = sub.add_parser(
        "classify", help="recursive-vs-proxy classification"
    )
    classify.add_argument("--recursives", type=int, default=15)
    classify.add_argument("--proxies", type=int, default=60)
    classify.add_argument("--fabricators", type=int, default=10)
    classify.add_argument("--transparent", type=int, default=0,
                          help="plant N transparent forwarders (answers "
                          "arrive off-path from their shared upstreams)")
    classify.add_argument("--upstreams", type=int, default=4)
    classify.add_argument("--seed", type=int, default=7)

    inject = sub.add_parser(
        "inject", help="record-injection vulnerability test"
    )
    inject.add_argument("--resolvers", type=int, default=50)
    inject.add_argument("--vulnerable-share", type=float, default=0.92)
    inject.add_argument("--seed", type=int, default=7)

    serve = sub.add_parser(
        "serve",
        help="serve a resolver profile on a real UDP port (loopback "
        "daemon; SIGTERM drains gracefully)",
    )
    serve.add_argument("--profile", default="recursive",
                       choices=("recursive", "forwarder", "transparent",
                                "dnssec"),
                       help="which resolver behavior to run in front of "
                       "the in-process root/TLD/auth hierarchy")
    serve.add_argument("--ip", default="127.0.0.1",
                       help="client-facing address (default loopback)")
    serve.add_argument("--port", type=int, default=5300,
                       help="client-facing UDP port; 0 picks an "
                       "ephemeral one (read it from --ready-file)")
    serve.add_argument("--sld", default=None,
                       help="zone origin the fixture records live under "
                       "(default: the measurement SLD)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       metavar="RPS",
                       help="BIND-style RRL: suppress responses to a "
                       "client above RPS responses/second (0: off)")
    serve.add_argument("--quota", type=float, default=0.0, metavar="QPS",
                       help="per-client query quota: REFUSED above QPS "
                       "queries/second (0: off)")
    serve.add_argument("--negative-ttl", type=float, default=0.0,
                       metavar="SECONDS",
                       help="cache NXDOMAIN/SERVFAIL outcomes for "
                       "SECONDS (0: off)")
    serve.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="shed load (SERVFAIL) beyond N in-flight "
                       "resolutions")
    serve.add_argument("--max-glueless", type=int, default=0, metavar="N",
                       help="chase up to N glueless NS names per "
                       "referral (0: never)")
    serve.add_argument("--drain-grace", type=float, default=3.0,
                       metavar="SECONDS",
                       help="how long a SIGTERM waits for in-flight "
                       "resolutions before closing")
    serve.add_argument("--eviction-horizon", type=float, default=10.0,
                       metavar="SECONDS",
                       help="forwarder profile: evict outstanding "
                       "upstream relays older than SECONDS")
    serve.add_argument("--policy-file", metavar="FILE", default=None,
                       help="JSON policy document (see repro.policy."
                       "config.PolicyConfig) applied to the front")
    serve.add_argument("--block", action="append", default=[],
                       metavar="CIDR|SUFFIX",
                       help="block rule (repeatable): an address/CIDR "
                       "refuses the client; anything else answers "
                       "NXDOMAIN for the qname suffix")
    serve.add_argument("--sinkhole", action="append", default=[],
                       metavar="SUFFIX",
                       help="answer matching qnames with a synthesized "
                       "A record at the sinkhole address (repeatable)")
    serve.add_argument("--sinkhole-ip", metavar="IP", default=None,
                       help="address sinkholed names resolve to "
                       "(default: 203.0.113.253)")
    serve.add_argument("--zone-route", action="append", default=[],
                       metavar="ZONE=IP",
                       help="route queries under ZONE to the upstream "
                       "at IP instead of the default path (repeatable)")
    serve.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the serving metrics document to FILE "
                       "as JSON at drain")
    serve.add_argument("--ready-file", metavar="FILE", default=None,
                       help="write {profile, ip, port, pid} JSON to FILE "
                       "once the socket is bound (for scripts and CI)")

    sweep = sub.add_parser(
        "sweep", help="seed sweep: sampling-noise quantification"
    )
    sweep.add_argument("--year", type=int, default=2018, choices=(2013, 2018))
    sweep.add_argument("--scale", type=int, default=16384)
    sweep.add_argument("--seeds", type=int, default=4,
                       help="number of seeds (1..N)")

    return parser


def _default_compression(year: int, given: float | None) -> float:
    if given is not None:
        return given
    return 64.0 if year == 2013 else 1.0


def _cmd_scan(args) -> int:
    from repro.core import Campaign, CampaignConfig

    if args.drop_captures and not args.stream:
        print("--drop-captures requires --stream")
        return 2
    if args.min_coverage is not None and not 0.0 <= args.min_coverage <= 1.0:
        print("--min-coverage must be a fraction in [0, 1]")
        return 2
    config = CampaignConfig(
        year=args.year,
        scale=args.scale,
        seed=args.seed,
        time_compression=_default_compression(args.year, args.compression),
        workers=args.workers,
        fault_profile=args.fault_profile,
        max_shard_retries=args.max_shard_retries,
        mode="stream" if args.stream else "batch",
        drop_captures=args.drop_captures,
        attack_suite=args.attacks,
        attack_policy=args.attack_policy,
    )
    workers_note = f", workers {args.workers}" if args.workers > 1 else ""
    faults_note = (
        f", faults '{args.fault_profile}'"
        if args.fault_profile != "none" else ""
    )
    stream_note = ", streaming" if args.stream else ""
    telemetry = None
    if args.metrics_out or args.trace_out or args.flight_dir:
        from repro.telemetry import TelemetryConfig

        telemetry = TelemetryConfig(flight_dump_dir=args.flight_dir)
    resume_note = f", resuming from {args.resume}" if args.resume else ""
    telemetry_note = ", telemetry" if telemetry is not None else ""
    print(
        f"Scanning (year {args.year}, scale 1/{args.scale}, "
        f"seed {args.seed}{workers_note}{faults_note}"
        f"{stream_note}{resume_note}{telemetry_note})..."
    )
    try:
        result = Campaign(config).run(
            checkpoint_dir=args.checkpoint,
            resume_from=args.resume,
            telemetry=telemetry,
        )
    except ValueError as error:
        if args.resume is None:
            raise
        print(f"Cannot resume from {args.resume}: {error}")
        return 2
    print(result.report() if args.full_report else result.summary())
    if result.stream_stats is not None:
        print(result.stream_stats.summary())
    if result.telemetry is not None:
        if args.metrics_out:
            target = result.telemetry.write_metrics(args.metrics_out)
            print(f"Metrics written to {target}")
        if args.trace_out:
            target = result.telemetry.write_trace(args.trace_out)
            print(f"Trace written to {target}")
    if args.save and args.drop_captures:
        print(
            "Note: --drop-captures retained no raw packets; the saved "
            "dataset will carry tables and metadata only."
        )
    if args.save:
        from repro.datasets import save_campaign

        path = save_campaign(result, args.save)
        print(f"Dataset saved to {path}")
    if args.markdown:
        from repro.reporting import write_markdown_report

        target = write_markdown_report(result, args.markdown)
        print(f"Markdown report written to {target}")
    coverage = 1.0 if result.degraded is None else result.degraded.coverage
    if result.degraded is not None or (
        args.min_coverage is not None and coverage < args.min_coverage
    ):
        # Exit code 3 (distinct from argument errors' 2): the campaign
        # completed but with shards missing — scripting around `scan`
        # must not mistake a degraded run for a full one.
        print(
            f"scan: degraded campaign (coverage {coverage:.2%}"
            + (
                f", threshold {args.min_coverage:.2%}"
                if args.min_coverage is not None else ""
            )
            + "); exiting 3",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_attack(args) -> int:
    from repro.attacks import (
        ATTACK_FAMILIES,
        AttackSuiteConfig,
        attack_markdown,
        postures_with_policy,
        render_attack_matrix,
        run_attack_matrix,
    )

    if args.families:
        families = tuple(
            name.strip() for name in args.families.split(",") if name.strip()
        )
        unknown = [f for f in families if f not in ATTACK_FAMILIES]
        if unknown:
            print(
                f"unknown attack families: {', '.join(unknown)} "
                f"(known: {', '.join(ATTACK_FAMILIES)})"
            )
            return 2
    else:
        families = ATTACK_FAMILIES
    config_kwargs = dict(
        seed=args.seed,
        resolvers=args.resolvers,
        fanout=args.fanout,
        attack_queries=args.attack_queries,
        families=families,
    )
    if args.with_policy:
        config_kwargs["postures"] = postures_with_policy()
    config = AttackSuiteConfig(**config_kwargs)
    telemetry = None
    if args.metrics_out:
        from repro.telemetry import TelemetryConfig
        from repro.telemetry.hub import as_hub

        telemetry = as_hub(TelemetryConfig())
    print(
        f"Running attack suite (seed {args.seed}, {args.resolvers} "
        f"resolvers, families {', '.join(families)})..."
    )
    matrix = run_attack_matrix(config, telemetry=telemetry)
    print(render_attack_matrix(matrix))
    if telemetry is not None and args.metrics_out:
        target = telemetry.snapshot().write_metrics(args.metrics_out)
        print(f"Metrics written to {target}")
    if args.markdown:
        import pathlib

        target = pathlib.Path(args.markdown)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(attack_markdown(matrix))
        print(f"Markdown report written to {target}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis.report import (
        render_correctness,
        render_country_distribution,
        render_flag_table,
        render_incorrect_forms,
        render_malicious_categories,
        render_malicious_flags,
        render_probe_summary,
        render_rcode_table,
        render_top_destinations,
    )
    from repro.datasets import analyze_dataset, load_campaign

    dataset = load_campaign(args.dataset)
    analysis = analyze_dataset(dataset)
    year = dataset.year
    sections = [
        f"Offline analysis of {args.dataset} (year {year}, scale "
        f"1/{dataset.scale})",
        render_probe_summary([analysis.probe_summary]),
        render_correctness({year: analysis.correctness}),
        render_flag_table({year: analysis.ra_table}),
        render_flag_table({year: analysis.aa_table}),
        render_rcode_table({year: analysis.rcode_table}),
        render_incorrect_forms({year: analysis.incorrect_forms}),
        render_top_destinations(analysis.top_destinations),
        render_malicious_categories({year: analysis.malicious_categories}),
        render_malicious_flags(analysis.malicious_flags),
        render_country_distribution(analysis.country_distribution),
    ]
    print("\n\n".join(sections))
    return 0


def _cmd_compare(args) -> int:
    from repro.core import run_both_years

    print(f"Running both campaigns at scale 1/{args.scale}...")
    result_2013, result_2018, comparison = run_both_years(
        scale=args.scale, seed=args.seed
    )
    print(result_2013.summary())
    print(result_2018.summary())
    print()
    print(comparison.headline())
    print(f"  open resolvers declined: {comparison.open_resolvers_declined}")
    print(f"  incorrect answers flat:  {comparison.incorrect_stayed_flat}")
    print(f"  malicious increased:     {comparison.malicious_increased}")
    return 0


def _cmd_fingerprint(args) -> int:
    from repro.core import Campaign, CampaignConfig
    from repro.fingerprint import VersionScanner, render_census, take_census

    config = CampaignConfig(
        year=args.year, scale=args.scale, seed=args.seed,
        time_compression=_default_compression(args.year, None),
    )
    print(f"Scanning (year {args.year}, scale 1/{args.scale})...")
    result = Campaign(config).run()
    targets = sorted(result.population.address_set())
    print(f"Fingerprinting {len(targets):,} responders...")
    scan = VersionScanner(result.network).scan(targets)
    census = take_census(scan, total_targets=len(targets))
    print(render_census(census))
    return 0


def _cmd_monitor(args) -> int:
    from repro.monitor import ChurnModel, ContinuousMonitor

    monitor = ContinuousMonitor(
        scale=args.scale,
        seed=args.seed,
        churn=ChurnModel(
            death_rate=args.death_rate,
            birth_rate=args.birth_rate,
            behavior_change_rate=args.change_rate,
        ),
    )
    print(f"Monitoring for {args.epochs} epochs at scale 1/{args.scale}...")
    trend = monitor.run(epochs=args.epochs)
    for report in monitor.epochs:
        line = (
            f"  epoch {report.epoch}: {len(report.snapshot):,} responders, "
            f"{report.open_resolvers:,} open, "
            f"{report.malicious_resolvers:,} malicious"
        )
        if report.diff is not None:
            line += f" | {report.diff.summary()}"
        print(line)
    print()
    print("Trend:", trend.summary())
    return 0


def _cmd_exposure(args) -> int:
    from repro.clients import ExposureExperiment, WorkloadConfig, render_exposure

    experiment = ExposureExperiment(
        workload=WorkloadConfig(
            clients=args.clients, queries_per_client=args.queries
        ),
        resolver_count=args.resolvers,
        malicious_share=args.malicious_share,
        seed=args.seed,
    )
    print(render_exposure(experiment.run()))
    return 0


def _cmd_amplify(args) -> int:
    from repro.amplification import (
        build_rich_zone,
        measure_amplification,
        sweep_qtypes,
    )
    from repro.attacks import AmplificationAttack
    from repro.dnslib.constants import QueryType
    from repro.dnssrv.auth import AuthoritativeServer
    from repro.dnssrv.hierarchy import build_hierarchy
    from repro.dnssrv.recursive import RecursiveResolver
    from repro.netsim.network import Network

    origin = "amp.example"
    server = AuthoritativeServer("198.51.100.53")
    server.load_zone(build_rich_zone(origin))
    print("Amplification factors:")
    for measurement in sweep_qtypes(server, origin):
        name = QueryType(measurement.qtype).name
        print(
            f"  {name:>5}: {measurement.query_bytes} B -> "
            f"{measurement.response_bytes} B ({measurement.factor:.1f}x)"
        )
    no_edns = measure_amplification(server, origin, QueryType.ANY, use_edns=False)
    print(f"  ANY without EDNS: {no_edns.response_bytes} B ({no_edns.factor:.1f}x)")
    network = Network(seed=1)
    hierarchy = build_hierarchy(network, sld=origin, auth_ip="198.51.100.53")
    hierarchy.auth.load_zone(build_rich_zone(origin))
    ips = []
    for index in range(args.resolvers):
        ip = f"93.184.{index // 250}.{index % 250 + 1}"
        RecursiveResolver(ip, hierarchy.root_servers).attach(network)
        ips.append(ip)
    attack = AmplificationAttack(network, "6.6.6.6", "203.0.113.9", ips, origin)
    report = attack.launch(rounds=args.rounds)
    print(
        f"Attack through {args.resolvers} resolvers x {args.rounds} rounds: "
        f"{report.attacker_bytes:,} B spent, victim absorbed "
        f"{report.victim_bytes:,} B ({report.amplification_factor:.1f}x)"
    )
    return 0


def _cmd_dnssec(args) -> int:
    from repro.core import Campaign, CampaignConfig
    from repro.dnssec import ValidatorScanner, render_validator_census

    config = CampaignConfig(
        year=args.year, scale=args.scale, seed=args.seed,
        time_compression=_default_compression(args.year, None),
    )
    print(f"Scanning (year {args.year}, scale 1/{args.scale})...")
    result = Campaign(config).run()
    targets = sorted(result.population.address_set())
    print(f"Probing {len(targets):,} responders with DO-flagged queries...")
    scanner = ValidatorScanner(
        result.network, result.hierarchy.auth, result.hierarchy.sld
    )
    census = scanner.scan(targets)
    print(render_validator_census(census, args.year))
    if args.validation:
        from repro.dnssec import render_validation_census

        # The campaign ran the bogus-probe census on these targets.
        print(f"Probing {len(targets):,} responders with a bogus-RRSIG zone...")
        print(render_validation_census(result.validation_table, args.year))
    return 0


def _cmd_classify(args) -> int:
    from repro.classify import (
        ResolverClassifier,
        build_classification_world,
        render_classification,
    )

    network, hierarchy, targets = build_classification_world(
        recursives=args.recursives,
        proxies=args.proxies,
        fabricators=args.fabricators,
        shared_upstreams=args.upstreams,
        transparent=args.transparent,
        seed=args.seed,
    )
    report = ResolverClassifier(network, hierarchy).classify(targets)
    print(render_classification(report))
    return 0


def _cmd_inject(args) -> int:
    from repro.injection import InjectionExperiment, render_injection

    experiment = InjectionExperiment(
        resolver_count=args.resolvers,
        vulnerable_share=args.vulnerable_share,
        seed=args.seed,
    )
    print(render_injection(experiment.run()))
    return 0


def _cmd_serve(args) -> int:
    # Imported lazily: the daemon pulls in asyncio/socket machinery the
    # batch commands never need.
    from repro.transport.serve import DnsService, ServeConfig

    config = ServeConfig(
        profile=args.profile,
        ip=args.ip,
        port=args.port,
        sld=args.sld if args.sld else ServeConfig.sld,
        rate_limit=args.rate_limit,
        quota=args.quota,
        negative_ttl=args.negative_ttl,
        max_pending=args.max_pending,
        max_glueless=args.max_glueless,
        drain_grace=args.drain_grace,
        eviction_horizon=args.eviction_horizon,
        policy_file=args.policy_file,
        block=tuple(args.block),
        sinkhole=tuple(args.sinkhole),
        zone_route=tuple(args.zone_route),
        sinkhole_ip=args.sinkhole_ip,
        metrics_out=args.metrics_out,
        ready_file=args.ready_file,
    )
    service = DnsService(config)
    code = service.run()
    if args.metrics_out:
        print(f"Metrics written to {args.metrics_out}")
    return code


def _cmd_sweep(args) -> int:
    from repro.core.sweep import run_seed_sweep

    print(
        f"Sweeping {args.seeds} seeds (year {args.year}, "
        f"scale 1/{args.scale})..."
    )
    sweep = run_seed_sweep(
        year=args.year,
        scale=args.scale,
        seeds=tuple(range(1, args.seeds + 1)),
        time_compression=64.0 if args.year == 2013 else 8.0,
    )
    print(sweep.summary())
    return 0


_COMMANDS = {
    "scan": _cmd_scan,
    "dnssec": _cmd_dnssec,
    "classify": _cmd_classify,
    "inject": _cmd_inject,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "fingerprint": _cmd_fingerprint,
    "monitor": _cmd_monitor,
    "exposure": _cmd_exposure,
    "amplify": _cmd_amplify,
    "attack": _cmd_attack,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    return _COMMANDS[args.command](args)
