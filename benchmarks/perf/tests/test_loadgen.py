"""Calibrate the load generator against a bare UDP echo server.

The echo server runs in its own process and imports nothing from the
program, so any lateness or loss measured here is the generator's own.
The same limit the benchmark applies to real runs holds here: the
generator sends within 1 ms of schedule at p99 and loses nothing, so a
later regression in the serve numbers cannot be the generator's fault.
CPUs are split as in a real run. On a host that stalls its vCPUs for
milliseconds many times a second the lateness test fails, and should:
no generator keeps a sub-millisecond schedule there.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

from benchmarks.perf.loadgen import LoadGenerator, QueryMix, check_echo
from benchmarks.perf.serve import LATENESS_LIMIT_MS, windowed_p99
from benchmarks.perf.workloads import SERVE_WORKLOADS

ECHO = pathlib.Path(__file__).with_name("echo_server.py")


@pytest.fixture
def echo(tmp_path):
    ready = tmp_path / "port"
    own_cpus = os.sched_getaffinity(0)
    generator_cpus = {min(own_cpus)}
    proc = subprocess.Popen([sys.executable, str(ECHO), str(ready)])
    os.sched_setaffinity(proc.pid, own_cpus - generator_cpus or own_cpus)
    os.sched_setaffinity(0, generator_cpus)
    try:
        deadline = time.monotonic() + 10
        while not ready.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        yield ("127.0.0.1", int(ready.read_text()))
    finally:
        os.sched_setaffinity(0, own_cpus)
        proc.terminate()
        proc.wait(10)


@pytest.mark.parametrize("workload", sorted(SERVE_WORKLOADS))
def test_open_loop_keeps_schedule(echo, workload):
    spec = SERVE_WORKLOADS[workload]
    with LoadGenerator(echo, QueryMix(1, spec.miss_share), check=check_echo) as gen:
        result = gen.run_open_loop(spec.rate, 3.0)
    assert result.sent == int(spec.rate * 3.0)
    assert result.answered == result.sent
    assert result.failed == 0
    assert windowed_p99(result.lateness) * 1e3 < LATENESS_LIMIT_MS


def test_saturation_keeps_window_full(echo):
    with LoadGenerator(echo, QueryMix(2, 0.8), check=check_echo) as gen:
        result = gen.run_saturation(2.0, in_flight=32)
    assert result.failed == 0
    assert result.answered == result.sent
    # An echo server answers far faster than any daemon under test, so
    # the generator, not the server, bounds this rate.
    assert result.rate > 20_000


def test_mix_is_seeded_and_unique():
    mix_a, mix_b = QueryMix(5, 0.8), QueryMix(5, 0.8)
    draws = [mix_a.next() for _ in range(5000)]
    assert draws == [mix_b.next() for _ in range(5000)]
    misses = [question for question, expected in draws if expected is None]
    assert len(set(misses)) == len(misses)
    assert 0.75 < len(misses) / len(draws) < 0.85
