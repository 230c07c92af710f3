"""The four workloads and the metrics the benchmark reports for them.

Every workload reports every metric. A metric names one quantity a user
sees; what "one operation" is depends on the workload:

- campaign workloads: the operation is one cold scan, ``Campaign(config)
  .run()`` plus ``report()`` over the 1.81M-address 2018 universe at
  scale 2048. Latency is the scan's wall time; throughput is Q1 probes
  per wall second of it; CPU is per Q1 probe, forked workers included.
- serve workloads: the operation is one DNS query to a live
  ``repro serve`` daemon over loopback. Latency is open-loop, at a fixed
  offered rate below the knee; throughput is answered queries per
  second with 32 always in flight; CPU is the daemon's per answer.

The workload names, the metrics with their units and directions, and
the end-to-end bounds are read from the repository's ``BENCHMARK.json``;
this module adds only how each workload runs.

This module imports nothing from ``repro`` at import time, so a fresh
campaign interpreter can time its own import of the program.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from benchmarks.perf import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads(
    (pathlib.Path(__file__).with_name("baseline.json")).read_text()
)

#: name -> why it is in the benchmark.
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in SPEC["workloads"]}
#: Each a dict with ``name``, ``unit``, ``better`` (and ``bound``).
END_TO_END: list[dict] = SPEC["end_to_end"]
#: Per-layer metrics of a traced run. ``<layer>.calls`` and
#: ``<layer>.self_s`` read the wrapper counters of that layer, a name
#: ending in ``_s`` reads the self time of the layer it names, and the
#: rest are tallies or values read from the program's own results.
PER_LAYER: list[dict] = SPEC["per_layer"]

#: The seed whose campaign report digest is pinned in ``baseline.json``.
PINNED_SEED: int = BASELINE["default_seed"]
PINNED_DIGEST: str = BASELINE["pinned_report_sha256"]

CAMPAIGN_SCALE = 2048


def layer_metrics(trace: dict, extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from merged tracer counters.

    ``extra`` supplies the values read from the program's results or
    the load generator; it overrides what the naming rule would give.
    """
    calls, busy, tally = trace["calls"], trace["busy"], trace["tally"]
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        name = metric["name"]
        if name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = busy.get(name[: -len(".self_s")], 0.0)
        elif name.endswith("_s"):
            value = busy.get(name[: -len("_s")], 0.0)
        else:
            value = tally.get(name, 0)
        values[name] = float(value)
    gets = calls.get("dnssrv.cache.get", 0)
    hits = tally.get("dnssrv.cache.get.hits", 0)
    values["dnssrv.cache.hit_ratio"] = hits / gets if gets else 0.0
    misses = gets - hits
    values["dnssrv.recursive.upstream_per_miss"] = (
        calls.get("dnssrv.recursive.handle_upstream", 0) / misses if misses else 0.0
    )
    values.update({name: float(value) for name, value in extra.items()})
    return values


def campaign_config(name: str, seed: int, scale: int = CAMPAIGN_SCALE):
    """The ``CampaignConfig`` of a campaign workload (imports the program)."""
    from repro.core import CampaignConfig

    knobs = dict(year=2018, scale=scale, seed=seed, time_compression=4.0)
    if name == "campaign-stream":
        knobs.update(
            mode="stream", drop_captures=True, engine="multicore", workers=2
        )
    elif name != "campaign-batch":
        raise ValueError(f"not a campaign workload: {name}")
    return CampaignConfig(**knobs)


@dataclasses.dataclass(frozen=True)
class ServeWorkload:
    #: Share of queries that are unique names under the SLD.
    miss_share: float
    #: Offered rate of the open-loop latency phase, below the knee.
    rate: float
    daemon_args: tuple[str, ...] = ()


SERVE_WORKLOADS = {
    "serve-hit": ServeWorkload(miss_share=0.0, rate=4000.0),
    "serve-miss": ServeWorkload(
        miss_share=0.8, rate=800.0, daemon_args=("--negative-ttl", "30")
    ),
}


@dataclasses.dataclass
class RunResult:
    """One run of one workload."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    layers: dict[str, float] | None = None
    notes: list[str] = dataclasses.field(default_factory=list)

    def contract_line(self, traced: bool) -> str:
        """The result object: end-to-end metrics, or per-layer when traced."""
        table = PER_LAYER if traced else END_TO_END
        values = self.layers if traced else self.metrics
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                metric["name"]: {
                    "value": values[metric["name"]], "unit": metric["unit"],
                }
                for metric in table
            },
        })
