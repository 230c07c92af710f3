"""One cold campaign scan in a fresh interpreter; prints one JSON line.

    python -m benchmarks.perf.campaign_child WORKLOAD SEED [--scale N]
        [--trace-dir DIR | --setup-only]

The parent spawns this per repeat, as ``repro scan`` would run, because
``repro.core.shard`` memoises the universe and the sampled world in
module-level slots: in-process repeats skip that O(universe) set-up (a
cold multicore scan took 4.8 s, warm repeats 3.8-4.6 s) and the batch
path's RSS grew from 81 MB to 122 MB across in-process repeats.

``ready`` is ``time.monotonic()`` once ``import repro`` has finished and
the ``Campaign`` exists; the parent subtracts its spawn time to get
``setup_s``. With ``--setup-only`` the child stops there, which gives
the parent more set-up samples than it has time for scans. With
``--trace-dir`` the timing wrappers go in before the
program is imported, forked workers flush into that directory, and the
merged spans land in ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import resource
import time

from benchmarks.perf import tracing
from benchmarks.perf.workloads import CAMPAIGN_SCALE, campaign_config


def _cpu_seconds() -> float:
    """CPU of this process plus every reaped child (the forked workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _result_extras(result) -> dict[str, float]:
    """Per-layer values the program reports about itself."""
    summary = result.probe_summary
    extras = {
        "prober.q1": summary.q1,
        "prober.r2_per_q1": summary.r2 / summary.q1 if summary.q1 else 0.0,
    }
    stream = result.stream_stats
    if stream is not None:
        extras["stream.events"] = (
            stream.q1_events + stream.q2_events + stream.r2_events
            + stream.forward_events
        )
        extras["stream.peak_live_flows"] = stream.peak_live_flows
    engine = result.engine_stats
    if engine is not None:
        busy = list(engine["worker_busy_s"].values())
        extras["core.multicore.worker_busy_s"] = sum(busy)
        extras["core.multicore.worker_busy_max_s"] = max(busy)
        extras["core.multicore.busy_skew"] = max(busy) / (sum(busy) / len(busy))
        extras["core.multicore.bytes_shipped"] = engine["bytes_shipped"]
    return extras


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="campaign_child")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--scale", type=int, default=CAMPAIGN_SCALE)
    parser.add_argument("--trace-dir", type=pathlib.Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # The wrappers must go in before the program is first imported.
    tracer = tracing.install(args.trace_dir) if args.trace_dir else None
    from repro.core import Campaign

    campaign = Campaign(campaign_config(args.workload, args.seed, args.scale))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    result = campaign.run()
    report = result.report()
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu_before
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "q1": result.probe_summary.q1,
        "digest": hashlib.sha256(report.encode()).hexdigest(),
        "extras": _result_extras(result),
    }
    if tracer is not None:
        records = [tracer.record()] + [
            json.loads(path.read_text())
            for path in sorted(args.trace_dir.glob("worker-*.json"))
        ]
        merged = tracing.merge_records(records)
        tracing.write_spans(args.trace_dir / "spans.jsonl", merged)
        record["trace"] = {key: merged[key] for key in ("calls", "busy", "tally")}
        record["trace"]["missing"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
