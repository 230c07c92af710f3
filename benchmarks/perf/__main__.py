"""Command line: ``python3 -m benchmarks.perf run [options]``.

With one ``--workload`` (and the default one repeat and one set) it runs
that workload once and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` — end-to-end
metrics, or per-layer ones with ``--trace 1``. Lines before it starting
with ``#`` are notes (validity problems, where the spans went).

Without ``--workload`` it runs all four workloads ``--repeats`` times
(default 3; repeat ``i`` uses seed ``SEED + i``) and prints, per
workload and metric, the median, quartiles and sample count.
``--sets 2`` runs the whole thing twice and prints each metric's spread
next to its regression bound from ``BENCHMARK.json``. Every mode exits
non-zero if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from benchmarks.perf import MissingProgram, campaign, require_program, serve
from benchmarks.perf.workloads import (
    END_TO_END,
    PER_LAYER,
    PINNED_SEED,
    SERVE_WORKLOADS,
    WORKLOADS,
    RunResult,
)

DEFAULT_SECONDS = 20


def run_one(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    module = serve if name in SERVE_WORKLOADS else campaign
    return module.run(name, seed, seconds, trace)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs: dict[str, list[RunResult]], traced: bool) -> dict:
    """workload -> metric -> {unit, median, q1, q3, n, values}."""
    summary = {}
    for workload, results in runs.items():
        rows = {}
        tables = [(END_TO_END, "metrics")] + ([(PER_LAYER, "layers")] if traced else [])
        for table, field in tables:
            for metric in table:
                name = metric["name"]
                values = [getattr(result, field)[name] for result in results]
                q1, median, q3 = quartiles(values)
                rows[name] = {
                    "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                    "n": len(values), "values": values,
                }
        summary[workload] = rows
    return summary


def print_summary(summary: dict, seeds: list[int]) -> None:
    for name, rows in summary.items():
        print(f"\n{name}  (seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':40} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12}  n")
        for metric, row in rows.items():
            print(
                f"  {metric:40} {row['unit']:6} {row['median']:12.6g} "
                f"{row['q1']:12.6g} {row['q3']:12.6g}  {row['n']}"
            )


def print_calibration(summaries: list[dict]) -> None:
    """Spread (IQR / median) of each set and the shift between sets."""
    print("\nnoise calibration: spread = (q3 - q1) / median; shift = set 2 "
          "median vs set 1")
    for name in summaries[0]:
        print(f"\n{name}")
        for metric in END_TO_END:
            rows = [summary[name][metric["name"]] for summary in summaries]
            spreads = [
                (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0
                for row in rows
            ]
            shift = rows[-1]["median"] / rows[0]["median"] - 1.0
            bound = metric["bound"]
            worst = max(spreads + [abs(shift)] * (metric["name"] != "setup_s"))
            flag = "" if worst <= bound else "  OVER BOUND"
            print(
                f"  {metric['name']:18} spreads "
                + " ".join(f"{spread:7.2%}" for spread in spreads)
                + f"  shift {shift:+7.2%}  bound {bound:.0%}{flag}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", "--workloads", dest="workloads",
                     action="append", default=[],
                     help="workload name (repeatable, or comma-separated); "
                          f"default all of: {', '.join(WORKLOADS)}")
    run.add_argument("--seed", type=int, default=PINNED_SEED)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                     help="measurement time of one run")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="also make a traced run (per-layer)")
    run.add_argument("--repeats", type=int, default=None,
                     help="runs per workload (default 1 with --workload, else 3)")
    run.add_argument("--sets", type=int, default=1,
                     help="full sets to run; 2 prints each metric's spread")
    run.add_argument("--out", default=None, help="write every sample as JSON")
    args = parser.parse_args(argv)

    try:
        require_program()
    except MissingProgram as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    names = [part for item in args.workloads for part in item.split(",") if part]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    repeats = args.repeats or (1 if names else 3)
    names = names or list(WORKLOADS)
    trace = bool(args.trace)

    if len(names) == 1 and repeats == 1 and args.sets == 1:
        result = run_one(names[0], args.seed, args.seconds, trace)
        for note in result.notes:
            print(f"# {note}")
        print(result.contract_line(trace))
        return 0 if result.correct else 1

    seeds = [args.seed + offset for offset in range(repeats)]
    sets = []
    for _ in range(args.sets):
        runs: dict[str, list[RunResult]] = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                result = run_one(name, seed, args.seconds, trace)
                for note in result.notes:
                    print(f"# {name} seed {seed}: {note}")
                runs[name].append(result)
        sets.append(runs)
    summaries = [summarize(runs, trace) for runs in sets]
    for summary in summaries:
        print_summary(summary, seeds)
    if args.sets > 1:
        print_calibration(summaries)
    correct = all(result.correct for runs in sets
                  for results in runs.values() for result in results)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "host_cores": os.cpu_count(),
                "python": platform.python_version(),
                "seconds": args.seconds,
                "seeds": seeds,
                "correct": correct,
                "sets": summaries,
            }, handle, indent=2)
    print(f"\nall outputs correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
