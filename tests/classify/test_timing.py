"""Timing-based classification tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.classify.timing import (
    FAST,
    SLOW,
    TimingClassifier,
    two_means_threshold,
)
from repro.dnslib.constants import Rcode
from repro.dnssrv.hierarchy import build_hierarchy
from repro.netsim.latency import FixedLatency, LogNormalLatency
from repro.netsim.network import Network
from repro.resolvers.behavior import AnswerKind, BehaviorSpec, ResponseMode
from repro.resolvers.host import BehaviorHost

#: The timing scan of ``build_world(4, 4)`` under log-normal hops.
PINNED_THRESHOLD = 0.169763298506
PINNED_RTTS = [
    0.098458728428, 0.107733121088, 0.143079216525, 0.181487305202,
    0.20107547686, 0.211105736555, 0.251861353702, 0.269984669344,
]


class TestTwoMeansThreshold:
    def test_clean_bimodal_split(self):
        values = [1.0, 1.1, 0.9, 5.0, 5.2, 4.8]
        threshold = two_means_threshold(values)
        assert 1.1 < threshold < 4.8

    def test_empty_and_singleton(self):
        assert two_means_threshold([]) == 0.0
        assert two_means_threshold([3.0]) == 3.0

    @given(st.lists(st.floats(0.001, 10.0), min_size=2, max_size=50))
    def test_threshold_within_range(self, values):
        threshold = two_means_threshold(values)
        assert min(values) <= threshold <= max(values)

    @given(
        st.lists(st.floats(0.9, 1.1), min_size=3, max_size=20),
        st.lists(st.floats(4.9, 5.1), min_size=3, max_size=20),
    )
    def test_separates_well_separated_clusters(self, low, high):
        threshold = two_means_threshold(low + high)
        assert all(value <= threshold for value in low)
        assert all(value > threshold for value in high)


class TestTimingClassifier:
    def build_world(self, fabricators=6, resolvers=6, latency=None):
        # Fixed latency makes the two populations perfectly bimodal:
        # fabricators answer in 2 hops, resolvers in 4.
        network = Network(seed=1, latency=latency or FixedLatency(0.05))
        hierarchy = build_hierarchy(network)
        targets, truth = [], {}
        for index in range(fabricators):
            ip = f"203.70.0.{index + 1}"
            spec = BehaviorSpec(
                name="fab", mode=ResponseMode.FABRICATE, ra=True, aa=True,
                answer_kind=AnswerKind.INCORRECT_IP,
                fixed_answer="208.91.197.91",
            )
            BehaviorHost(ip, spec, hierarchy.auth.ip).attach(network)
            targets.append(ip)
            truth[ip] = FAST
        for index in range(resolvers):
            ip = f"203.70.1.{index + 1}"
            spec = BehaviorSpec(
                name="std", mode=ResponseMode.RESOLVE, ra=True, aa=False,
                answer_kind=AnswerKind.CORRECT,
            )
            BehaviorHost(ip, spec, hierarchy.auth.ip).attach(network)
            targets.append(ip)
            truth[ip] = SLOW
        return network, hierarchy, targets, truth

    def test_perfect_separation_under_fixed_latency(self):
        network, hierarchy, targets, truth = self.build_world()
        result = TimingClassifier(network, hierarchy).classify(targets)
        assert result.labels == truth
        assert result.count(FAST) == 6
        assert result.count(SLOW) == 6

    def test_rtt_magnitudes(self):
        network, hierarchy, targets, truth = self.build_world()
        result = TimingClassifier(network, hierarchy).classify(targets)
        for target, rtt in result.rtts.items():
            if truth[target] == FAST:
                assert rtt == pytest.approx(0.10, abs=0.01)   # 2 hops
            else:
                assert rtt == pytest.approx(0.20, abs=0.01)   # 4 hops

    def test_rtts_and_threshold_are_pinned(self):
        # Log-normal hops make every RTT a distinct network draw: any
        # value that moves is a change in the probes, their send order
        # or in which answer is timed.
        network, hierarchy, targets, truth = self.build_world(
            4, 4, latency=LogNormalLatency(median=0.05, sigma=0.5)
        )
        result = TimingClassifier(network, hierarchy).classify(targets)
        assert round(result.threshold, 12) == PINNED_THRESHOLD
        assert [round(rtt, 12) for rtt in sorted(result.rtts.values())] == (
            PINNED_RTTS
        )

    def test_agrees_with_dual_capture(self):
        """Timing labels match the ground-truth dual-capture classes."""
        from repro.classify import ResolverClassifier, ResolverClass

        network, hierarchy, targets, truth = self.build_world(5, 5)
        timing = TimingClassifier(network, hierarchy).classify(targets)
        dual = ResolverClassifier(
            network, hierarchy, scanner_ip="132.170.3.24", source_port=31701,
            probe_prefix="dualx",
        ).classify(targets)
        for target in targets:
            dual_class = dual.classes[target]
            if dual_class is ResolverClass.FABRICATOR:
                assert timing.labels[target] == FAST
            elif dual_class is ResolverClass.RECURSIVE:
                assert timing.labels[target] == SLOW
