"""Traced ``repro serve``: the CLI daemon with timing wrappers installed.

    python -m benchmarks.perf.serve_launcher TRACE_OUT -- SERVE_ARGS...

Installs :mod:`benchmarks.perf.tracing` before the daemon's modules
import, runs the ordinary ``repro serve`` entry point (so flags and
config mapping are exactly the CLI's), and after the drain writes the
tracer's counters and spans to ``TRACE_OUT``. ``SIGUSR1`` restarts the
count, so the load generator can exclude its warm-up.
"""

from __future__ import annotations

import pathlib
import signal
import sys


def main(argv: list[str]) -> int:
    trace_out, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit("usage: serve_launcher TRACE_OUT -- SERVE_ARGS...")
    from benchmarks.perf import tracing

    tracer = tracing.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    from repro.cli.main import main as repro_main

    code = repro_main(["serve", *serve_args])
    tracer.dump(pathlib.Path(trace_out))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
