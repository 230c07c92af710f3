"""Serve workloads: a live ``repro serve`` daemon under open-loop load.

The daemon runs in its own process (``python -m repro serve --port 0``);
this process is the load generator — one thread, two UDP sockets — so
the two together keep both cores of the two-core reference host busy.
The generator pins itself to the first CPU and the daemon to the others,
so the scheduler cannot stack them on one core: with the daemon left
free, runs swung between two modes (serve-hit capacity 15k or 22k q/s)
depending on where it landed. All traffic stays on the loopback interface:
the numbers include no NIC, no wire and no real network delay.

A run:

1. spawns the daemon :data:`SETUP_SPAWNS` times, timing spawn to ready
   file (``setup_s`` is the median) and keeping the last one;
2. warms up for up to :data:`WARMUP_S` seconds, excluded from every
   metric: it fills the positive cache and, on serve-miss, starts
   filling the 10k-entry negative table. The first
   :data:`GENTLE_START_S` seconds keep one query in flight: a cold
   daemon hit by 32 concurrent misses sends ~100 datagrams to its own
   in-process hierarchy at once, and on a pinned CPU the kernel then
   deferred their loopback delivery to a starved softirq thread for
   about a second;
3. saturates for a third of the remaining time with :data:`IN_FLIGHT`
   queries outstanding (``throughput_per_s``, median over 0.5 s
   slices) — by its end serve-miss's negative table is full and evicts
   on every insert;
4. offers the workload's fixed rate for the rest: ``p50_ms`` over every
   query, timed from when it was due, and the daemon's CPU per answer
   from ``/proc/<pid>/task/*/schedstat``;
5. reads the daemon's ``VmHWM`` and sends SIGTERM, then checks for a
   clean drain.

Every reply is validated by the load generator (see
:mod:`benchmarks.perf.loadgen` for what counts as lost).

The tail is reported, not gated. On the reference host the fixed-rate
p99 swung 2-5x between runs of the same code: 1-20 ms host stalls hit
about 1% of queries, right at the 99th percentile. Each run prints it
in a note, with the generator's own lateness, and flags the run's
timing as invalid when the p99 of the median :data:`TAIL_WINDOW`-query
window exceeds :data:`LATENCY_LIMIT_MS` or the lateness, taken the same
way, reaches :data:`LATENESS_LIMIT_MS`. A flag is a warning about the
host, not a wrong output, so it leaves ``correct`` alone.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

from benchmarks.perf import ROOT, WORK, child_env, tracing
from benchmarks.perf.loadgen import (
    FIXTURES,
    SLD,
    LoadGenerator,
    PhaseResult,
    QueryMix,
    encode_question,
    query_wire,
)
from benchmarks.perf.workloads import SERVE_WORKLOADS, RunResult, layer_metrics

SETUP_SPAWNS = 15
WARMUP_S = 2.0
GENTLE_START_S = 0.25
IN_FLIGHT = 32
LOSS_TOLERANCE = 0.01
LATENCY_LIMIT_MS = 10.0
LATENESS_LIMIT_MS = 1.0
READY_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 15.0
#: Queries per tail window: at least ten samples beyond the p99.
TAIL_WINDOW = 1000


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def windowed_p99(values: list[float]) -> float:
    """Median over full :data:`TAIL_WINDOW`-sample windows of their p99."""
    windows = [
        values[start:start + TAIL_WINDOW]
        for start in range(0, len(values) - TAIL_WINDOW + 1, TAIL_WINDOW)
    ] or [values]
    return statistics.median(percentile(window, 0.99) for window in windows)


class Daemon:
    """One daemon process and the files it writes."""

    def __init__(self, workdir: pathlib.Path, tag: str, serve_args: list[str],
                 cpus: set[int], trace_out: pathlib.Path | None = None,
                 ) -> None:
        self.cpus = cpus
        self.ready_file = workdir / f"ready-{tag}.json"
        self.metrics_file = workdir / f"metrics-{tag}.json"
        self.log_file = workdir / f"daemon-{tag}.log"
        args = [
            "--port", "0", "--ready-file", str(self.ready_file),
            "--metrics-out", str(self.metrics_file), *serve_args,
        ]
        if trace_out is None:
            self.command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            self.command = [
                sys.executable, "-m", "benchmarks.perf.serve_launcher",
                str(trace_out), "--", *args,
            ]
        self.proc: subprocess.Popen | None = None
        self.endpoint: tuple[str, int] | None = None

    def start(self) -> float:
        """Spawn and wait for the ready file; returns seconds to ready."""
        with self.log_file.open("w") as log:
            spawned = time.monotonic()
            self.proc = subprocess.Popen(
                self.command, cwd=ROOT, env=child_env(),
                stdout=log, stderr=subprocess.STDOUT,
            )
        os.sched_setaffinity(self.proc.pid, self.cpus)
        deadline = spawned + READY_TIMEOUT_S
        while True:
            try:
                ready = json.loads(self.ready_file.read_text())
                break
            except (OSError, ValueError):  # absent, or still being written
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"daemon never became ready: {self.log_file.read_text()}"
                    )
                time.sleep(0.0005)
        setup = time.monotonic() - spawned
        self.endpoint = (ready["ip"], ready["port"])
        self._await_answer(deadline)
        return setup

    def _await_answer(self, deadline: float) -> None:
        """Block until the daemon answers a query.

        The ready file is written before the daemon installs its SIGTERM
        handler; an answer proves the serving loop — and the handler — is
        up, so a later SIGTERM drains instead of killing.
        """
        query = query_wire(1, encode_question(f"{FIXTURES[0][0]}.{SLD}"))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.connect(self.endpoint)
            sock.settimeout(0.2)
            while time.monotonic() < deadline:
                sock.send(query)
                try:
                    sock.recv(4096)
                    return
                except (socket.timeout, ConnectionRefusedError):
                    time.sleep(0.01)
        raise RuntimeError("daemon wrote its ready file but never answered")

    def cpu_seconds(self) -> float:
        """CPU the daemon's threads have run so far (scheduler clock, ns)."""
        tasks = pathlib.Path(f"/proc/{self.proc.pid}/task")
        return sum(
            int((task / "schedstat").read_text().split()[0])
            for task in tasks.iterdir()
        ) / 1e9

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> dict:
        """SIGTERM, wait for the drain; returns the metrics document."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(DRAIN_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"daemon exited {code}: {self.log_file.read_text()}")
        return json.loads(self.metrics_file.read_text())

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Drive:
    """The load phases against one daemon."""

    def __init__(self, daemon: Daemon, mix: QueryMix, rate: float,
                 seconds: float, after_warmup=None) -> None:
        warmup = min(WARMUP_S, seconds / 10.0)
        gentle = min(GENTLE_START_S, warmup / 2.0)
        rest = seconds - warmup
        with LoadGenerator(daemon.endpoint, mix) as gen:
            self.warmup = (
                gen.run_saturation(gentle, 1),
                gen.run_saturation(warmup - gentle, IN_FLIGHT),
            )
            if after_warmup is not None:
                after_warmup()
            self.saturation = gen.run_saturation(rest / 3.0, IN_FLIGHT)
            cpu_before = daemon.cpu_seconds()
            self.fixed = gen.run_open_loop(rate, rest * 2.0 / 3.0)
            self.daemon_cpu_s = daemon.cpu_seconds() - cpu_before

    @property
    def phases(self) -> tuple[PhaseResult, ...]:
        return (*self.warmup, self.saturation, self.fixed)

    def metrics(self) -> dict[str, float]:
        return {
            "p50_ms": percentile(self.fixed.latencies, 0.50) * 1e3,
            "throughput_per_s": self.saturation.rate,
            "cpu_us_per_op": self.daemon_cpu_s / self.fixed.answered * 1e6,
        }

    def lateness_p99_ms(self) -> float:
        return windowed_p99(self.fixed.lateness) * 1e3

    def tail_note(self) -> str:
        return (
            f"fixed-rate p99 {percentile(self.fixed.latencies, 0.99) * 1e3:.3f} ms "
            f"(median {TAIL_WINDOW}-query window: "
            f"{windowed_p99(self.fixed.latencies) * 1e3:.3f} ms; limit "
            f"{LATENCY_LIMIT_MS} ms); generator lateness p99 "
            f"{self.lateness_p99_ms():.3f} ms"
        )

    def failures(self) -> list[str]:
        """A note on failed queries, by phase, when there are any."""
        failed = [phase.failed for phase in self.phases]
        if not any(failed):
            return []
        return [
            f"{sum(failed)} failed queries by phase {failed}: "
            f"{sum(p.lost for p in self.phases)} lost, "
            f"{sum(p.servfail for p in self.phases)} SERVFAIL, "
            f"{sum(p.wrong for p in self.phases)} wrong"
        ]

    def problems(self) -> list[str]:
        """Why the daemon's outputs count as wrong, if they do.

        Any wrong answer or SERVFAIL is wrong. Loss is wrong only above
        :data:`LOSS_TOLERANCE` of the queries sent: a host stall that
        deschedules the daemon for half a second overflows its socket
        buffer at the fixed rate, which is the host's doing, while a
        daemon that stops answering a class of names loses far more.
        """
        found = []
        bad = sum(phase.servfail + phase.wrong for phase in self.phases)
        if bad:
            found.append(f"{bad} wrong or SERVFAIL answers")
        lost = sum(phase.lost for phase in self.phases)
        sent = sum(phase.sent for phase in self.phases)
        if lost > LOSS_TOLERANCE * sent:
            found.append(f"{lost} of {sent} queries lost")
        return found

    def timing_warnings(self) -> list[str]:
        found = []
        if windowed_p99(self.fixed.latencies) * 1e3 > LATENCY_LIMIT_MS:
            found.append("INVALID TIMING: fixed-rate p99 over the latency limit")
        if self.lateness_p99_ms() >= LATENESS_LIMIT_MS:
            found.append("INVALID TIMING: the load generator ran late")
        return found


def _serve_args(name: str) -> list[str]:
    return list(SERVE_WORKLOADS[name].daemon_args)


def _mix(name: str, seed: int) -> QueryMix:
    return QueryMix(f"{name}/{seed}", SERVE_WORKLOADS[name].miss_share)


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    workload = SERVE_WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    daemons: list[Daemon] = []
    own_cpus = os.sched_getaffinity(0)
    generator_cpus = {min(own_cpus)}
    daemon_cpus = own_cpus - generator_cpus or own_cpus
    os.sched_setaffinity(0, generator_cpus)
    try:
        setups = []
        for spawn in range(SETUP_SPAWNS):
            daemon = Daemon(workdir, str(spawn), _serve_args(name), daemon_cpus)
            daemons.append(daemon)
            setups.append(daemon.start())
            if spawn < SETUP_SPAWNS - 1:
                daemon.stop()
        drive = Drive(daemon, _mix(name, seed), workload.rate, seconds)
        peak_rss = daemon.peak_rss_mb()
        counters = daemon.stop()["counters"]
        problems = drive.problems()
        if counters["udp.handler_errors"] or counters["udp.send_errors"]:
            problems.append(f"daemon errors: {counters['udp.handler_errors']} "
                            f"handler, {counters['udp.send_errors']} send")
        metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss}
        metrics.update(drive.metrics())
        result = RunResult(
            correct=not problems,
            attempted=sum(phase.sent for phase in drive.phases),
            failed=sum(phase.failed for phase in drive.phases),
            metrics=metrics,
            notes=problems + drive.failures() + drive.timing_warnings() + [
                drive.tail_note(), "traffic: loopback only (127.0.0.0/8)",
            ],
        )
        if trace:
            _traced(name, seed, seconds, workdir, daemons, daemon_cpus, result)
        return result
    finally:
        for daemon in daemons:
            daemon.kill()
        os.sched_setaffinity(0, own_cpus)
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(name: str, seed: int, seconds: float, workdir: pathlib.Path,
            daemons: list[Daemon], cpus: set[int], result: RunResult) -> None:
    """Repeat the phases against a traced daemon; sets ``result.layers``."""
    trace_out = workdir / "trace.json"
    daemon = Daemon(workdir, "traced", _serve_args(name), cpus, trace_out=trace_out)
    daemons.append(daemon)
    daemon.start()
    drive = Drive(
        daemon, _mix(name, seed), SERVE_WORKLOADS[name].rate, seconds,
        after_warmup=lambda: daemon.signal(signal.SIGUSR1),
    )
    counters = daemon.stop()["counters"]
    record = json.loads(trace_out.read_text())
    spans = WORK / "traces" / f"{name}-seed{seed}.spans.jsonl"
    tracing.write_spans(spans, tracing.merge_records([record]))
    result.attempted += sum(phase.sent for phase in drive.phases)
    result.failed += sum(phase.failed for phase in drive.phases)
    if drive.problems():
        result.correct = False
    result.notes += [f"traced run: {note}" for note in drive.failures()]
    if record["missing"]:
        result.notes.append(f"trace targets missing: {record['missing']}")
    result.notes.append(f"spans: {spans}")
    measured = (drive.saturation, drive.fixed)
    extras = {
        key: counters[key] for key in (
            "serve.defense.negative_hits", "udp.received", "udp.sent",
            "udp.handler_errors", "udp.send_errors",
        )
    }
    extras.update({
        "loadgen.late_p99_ms": drive.lateness_p99_ms(),
        "loadgen.sent": sum(phase.sent for phase in measured),
        "loadgen.lost": sum(phase.lost for phase in measured),
        "trace.overhead_pct": (
            drive.metrics()["cpu_us_per_op"] / result.metrics["cpu_us_per_op"]
            - 1.0
        ) * 100.0,
    })
    result.layers = layer_metrics(record, extras)
