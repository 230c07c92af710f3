"""Ablation: response rate limiting as an amplification defense.

The flip side of section II-C: the same spoofed-source attack run
against an unprotected fleet and an RRL-protected fleet. The token
bucket caps what the victim absorbs, cutting the effective
amplification by an order of magnitude.

Alongside the human-readable table, the measured ablation is published
as machine-readable ``BENCH_rrl_defense.json`` (results/ and repo
root, the ``BENCH_*.json`` convention). The attack is fully seeded, so
the ``current`` section is a determinism artifact, not a timing: a
drift against the committed ``baseline`` means the defense layer or
the attack schedule changed behavior. The gate skips cleanly on a
fresh clone with no committed baseline.
"""

import pytest

from repro.amplification import build_rich_zone
from repro.attacks import AmplificationAttack
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.ratelimit import ResponseRateLimiter
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.network import Network
from benchmarks.conftest import (
    load_bench_record,
    publish_bench_record,
    write_result,
)

ORIGIN = "amp.example"


def run_attack(limited: bool):
    network = Network(seed=5)
    hierarchy = build_hierarchy(network, sld=ORIGIN, auth_ip="198.51.100.53")
    hierarchy.auth.load_zone(build_rich_zone(ORIGIN))
    limiter = (
        ResponseRateLimiter(rate_per_second=1.0, burst=3.0) if limited else None
    )
    ips = []
    for index in range(10):
        ip = f"100.0.1.{index + 1}"
        RecursiveResolver(
            ip, hierarchy.root_servers, rate_limiter=limiter
        ).attach(network)
        ips.append(ip)
    attack = AmplificationAttack(network, "6.6.6.6", "203.0.113.9", ips, ORIGIN)
    return attack.launch(rounds=25)


def test_rrl_defense(benchmark, results_dir):
    protected = benchmark(run_attack, True)
    unprotected = run_attack(False)

    assert unprotected.victim_packets == unprotected.queries_sent
    assert protected.victim_packets < 0.3 * unprotected.victim_packets
    assert protected.amplification_factor < 0.3 * unprotected.amplification_factor

    lines = [
        "RRL defense ablation (section II-C countermeasure)",
        "",
        f"  attack: 10 resolvers x 25 rounds of spoofed ANY",
        "",
        f"  {'fleet':>12} {'victim pkts':>12} {'victim bytes':>13} "
        f"{'amplification':>14}",
        f"  {'unprotected':>12} {unprotected.victim_packets:>12,} "
        f"{unprotected.victim_bytes:>13,} "
        f"{unprotected.amplification_factor:>13.1f}x",
        f"  {'RRL 1/s':>12} {protected.victim_packets:>12,} "
        f"{protected.victim_bytes:>13,} "
        f"{protected.amplification_factor:>13.1f}x",
    ]
    write_result(results_dir, "rrl_defense.txt", "\n".join(lines))

    def arm(report):
        return {
            "queries_sent": report.queries_sent,
            "victim_packets": report.victim_packets,
            "victim_bytes": report.victim_bytes,
            "amplification_factor": round(report.amplification_factor, 3),
        }

    record = load_bench_record("rrl_defense") or {
        "benchmark": "rrl_defense"
    }
    record["current"] = {
        "attack": {"resolvers": 10, "rounds": 25, "seed": 5},
        "rrl": {"rate_per_second": 1.0, "burst": 3.0},
        "unprotected": arm(unprotected),
        "protected": arm(protected),
        "mitigation_factor": round(
            unprotected.amplification_factor
            / max(protected.amplification_factor, 1e-9),
            2,
        ),
    }
    publish_bench_record("rrl_defense", record)


def test_rrl_defense_matches_committed_baseline(results_dir):
    """Determinism gate: the seeded ablation must reproduce the
    committed record exactly — any drift is a behavior change in the
    defense layer, not measurement noise."""
    baseline = load_bench_record("rrl_defense").get("baseline")
    if baseline is None:
        pytest.skip(
            "no committed rrl_defense baseline (fresh clone); "
            "run test_rrl_defense to record one"
        )
    protected = run_attack(True)
    unprotected = run_attack(False)
    assert baseline["unprotected"]["victim_packets"] == (
        unprotected.victim_packets
    )
    assert baseline["unprotected"]["victim_bytes"] == unprotected.victim_bytes
    assert baseline["protected"]["victim_packets"] == protected.victim_packets
    assert baseline["protected"]["victim_bytes"] == protected.victim_bytes
