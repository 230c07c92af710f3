"""The repository benchmark: cold campaign scans and a live ``repro serve``.

Run it with ``python3 -m benchmarks.perf run`` from the repository root;
see ``benchmarks/perf/README.md`` for workloads, metrics and how to
compare two commits.
"""

from __future__ import annotations

import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for ready files, metrics documents and trace output.
WORK = ROOT / ".perf-work"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'repro'} is missing")


def child_env() -> dict[str, str]:
    """Environment for every measured process.

    ``PYTHONHASHSEED=0`` pins set/dict iteration order, so a repeat does
    the same work as the last one; the paths make both the program and
    this package importable without installing either.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env

