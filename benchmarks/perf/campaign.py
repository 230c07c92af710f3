"""Campaign workloads: cold scans, each in a fresh interpreter.

A run keeps starting scans until the next one would overrun the run's
time budget (at least :data:`MIN_SCANS`), then checks their report
digests against an oracle: one untimed scan of the *other* campaign
workload with the same seed, which must render byte-identical tables.
For the pinned seed the digest must also equal ``baseline.json``'s.
``setup_s`` is the median over the scans' set-ups and
:data:`SETUP_SPAWNS` more interpreters that stop once the ``Campaign``
exists: a handful of quarter-second samples let one slow start move the
median.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from benchmarks.perf import ROOT, WORK, child_env
from benchmarks.perf.workloads import (
    CAMPAIGN_SCALE,
    PINNED_DIGEST,
    PINNED_SEED,
    RunResult,
    layer_metrics,
)

MIN_SCANS = 3
MAX_SCANS = 12
SETUP_SPAWNS = 10
#: Seconds one scan may take before the run is abandoned.
SCAN_TIMEOUT = 150

ORACLE = {"campaign-batch": "campaign-stream", "campaign-stream": "campaign-batch"}


def scan(name: str, seed: int, scale: int, *extra: str) -> dict:
    """One cold child interpreter; returns its record plus ``setup_s``."""
    command = [
        sys.executable, "-m", "benchmarks.perf.campaign_child",
        name, str(seed), "--scale", str(scale), *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=SCAN_TIMEOUT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(
            f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: int = CAMPAIGN_SCALE) -> RunResult:
    scans: list[dict] = []
    started = time.monotonic()
    while len(scans) < MAX_SCANS:
        scans.append(scan(name, seed, scale))
        elapsed = time.monotonic() - started
        last = scans[-1]["setup_s"] + scans[-1]["wall_s"]
        if len(scans) >= MIN_SCANS and elapsed + last > seconds:
            break
    oracle = scan(ORACLE[name], seed, scale)["digest"]
    setups = [record["setup_s"] for record in scans] + [
        scan(name, seed, scale, "--setup-only")["setup_s"]
        for _ in range(SETUP_SPAWNS)
    ]
    problems = []
    expected = oracle
    if seed == PINNED_SEED and scale == CAMPAIGN_SCALE:
        expected = PINNED_DIGEST
        if oracle != PINNED_DIGEST:
            problems.append(f"{ORACLE[name]} digest {oracle[:16]} != pinned")
    failed = sum(record["digest"] != expected for record in scans)
    if failed:
        problems.append(
            f"{failed}/{len(scans)} scans rendered a report digest other "
            f"than {expected[:16]}"
        )
    wall = statistics.median(record["wall_s"] for record in scans)
    q1 = scans[0]["q1"]
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": wall * 1e3,
        "throughput_per_s": q1 / wall,
        "cpu_us_per_op": statistics.median(r["cpu_s"] for r in scans) / q1 * 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in scans),
    }
    result = RunResult(
        correct=not problems, attempted=len(scans), failed=failed,
        metrics=metrics, notes=problems,
    )
    if trace:
        WORK.mkdir(exist_ok=True)
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=WORK)
        try:
            traced = scan(name, seed, scale, "--trace-dir", trace_dir)
            spans = WORK / "traces" / f"{name}-seed{seed}.spans.jsonl"
            spans.parent.mkdir(exist_ok=True)
            shutil.move(f"{trace_dir}/spans.jsonl", spans)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
        result.attempted += 1
        if traced["digest"] != expected:
            result.failed += 1
            result.correct = False
            result.notes.append("traced scan rendered a different report")
        if traced["trace"]["missing"]:
            result.notes.append(f"trace targets missing: {traced['trace']['missing']}")
        extras = dict(traced["extras"])
        extras["trace.overhead_pct"] = (traced["wall_s"] / wall - 1.0) * 100.0
        result.layers = layer_metrics(traced["trace"], extras)
        result.notes.append(f"spans: {spans}")
    return result
