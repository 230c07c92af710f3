#!/usr/bin/env python3
"""Deeper probing techniques and the defenses they motivate.

Three short experiments from the reproduction's extension set:

1. cache-behavior probing — ghost domains detected from outside
   (Jiang et al.);
2. timing side-channel classification — separating fabricators from
   genuine resolvers with RTTs alone;
3. response rate limiting — the standard mitigation for the
   amplification threat of section II-C.

Usage::

    python examples/probes_and_defenses.py
"""

from repro.amplification import build_rich_zone
from repro.attacks import AmplificationAttack
from repro.cachetest import CachePolicy, CacheProbeExperiment, render_cache_report
from repro.classify import FAST, TimingClassifier
from repro.dnssrv.hierarchy import build_hierarchy
from repro.dnssrv.ratelimit import ResponseRateLimiter
from repro.dnssrv.recursive import RecursiveResolver
from repro.netsim.latency import FixedLatency
from repro.netsim.network import Network
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.resolvers.host import BehaviorHost


def cache_probe() -> None:
    print("1) Cache-behavior probe (seed / repeat / post-delete):")
    report = CacheProbeExperiment(
        fleet={
            CachePolicy.COMPLIANT: 10,
            CachePolicy.TTL_EXTENDER: 4,
            CachePolicy.STALE_SERVER: 4,
            CachePolicy.NO_CACHE: 2,
        },
        seed=5,
    ).run()
    print(render_cache_report(report))
    print()


def timing_probe() -> None:
    print("2) Timing side-channel (no authoritative-side capture needed):")
    network = Network(seed=2, latency=FixedLatency(0.05))
    hierarchy = build_hierarchy(network)
    targets = []
    for index in range(8):
        ip = f"203.81.0.{index + 1}"
        spec = BehaviorSpec(
            name="fab", mode=ResponseMode.FABRICATE, ra=True, aa=True,
            answer_kind=AnswerKind.INCORRECT_IP, fixed_answer="208.91.197.91",
        )
        BehaviorHost(ip, spec, hierarchy.auth.ip).attach(network)
        targets.append(ip)
    for index in range(8):
        ip = f"203.81.1.{index + 1}"
        spec = BehaviorSpec(
            name="std", mode=ResponseMode.RESOLVE, ra=True, aa=False,
            answer_kind=AnswerKind.CORRECT,
        )
        BehaviorHost(ip, spec, hierarchy.auth.ip).attach(network)
        targets.append(ip)
    result = TimingClassifier(network, hierarchy).classify(targets)
    print(f"   threshold {result.threshold * 1000:.1f} ms; "
          f"{result.count(FAST)} fabricator-like, "
          f"{len(result.labels) - result.count(FAST)} resolver-like")
    print("   (fabricators answer without visiting the authority - their "
          "RTT is one round trip short)")
    print()


def rrl_demo() -> None:
    print("3) Response rate limiting vs the spoofed-ANY attack:")
    for limited in (False, True):
        network = Network(seed=3)
        hierarchy = build_hierarchy(
            network, sld="amp.example", auth_ip="198.51.100.53"
        )
        hierarchy.auth.load_zone(build_rich_zone("amp.example"))
        limiter = (
            ResponseRateLimiter(rate_per_second=1.0, burst=3.0)
            if limited else None
        )
        ips = []
        for index in range(8):
            ip = f"100.0.2.{index + 1}"
            RecursiveResolver(
                ip, hierarchy.root_servers, rate_limiter=limiter
            ).attach(network)
            ips.append(ip)
        report = AmplificationAttack(
            network, "6.6.6.6", "203.0.113.9", ips, "amp.example"
        ).launch(rounds=20)
        label = "RRL 1/s " if limited else "no RRL  "
        print(f"   {label}: victim absorbed {report.victim_bytes:>8,} bytes "
              f"({report.amplification_factor:5.1f}x)")


def main() -> None:
    cache_probe()
    timing_probe()
    rrl_demo()


if __name__ == "__main__":
    main()
