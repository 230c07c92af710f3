"""Continuous-monitoring tests: churn, snapshots, diffs, trends."""

import pytest

from repro.core import Campaign, CampaignConfig
from repro.monitor import (
    ChurnModel,
    ContinuousMonitor,
    Snapshot,
    diff_snapshots,
    evolve_population,
    snapshot_from_result,
)
from repro.monitor.snapshot import ResolverRecord

SCALE = 16384


@pytest.fixture(scope="module")
def base_result():
    return Campaign(CampaignConfig(year=2018, scale=SCALE, seed=21)).run()


@pytest.fixture(scope="module")
def base_universe():
    return Campaign(CampaignConfig(year=2018, scale=SCALE, seed=21)).build_universe()


def record(ip="1.1.1.1", ra=True, aa=False, rcode=0, has_answer=True,
           correct=True, malicious=False):
    return ResolverRecord(ip, ra, aa, rcode, has_answer, correct, malicious)


class TestChurnModel:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChurnModel(death_rate=1.5)
        with pytest.raises(ValueError):
            ChurnModel(birth_rate=-0.1)

    def test_evolution_changes_membership(self, base_result, base_universe):
        churn = ChurnModel(death_rate=0.2, birth_rate=0.1)
        evolved = evolve_population(
            base_result.population, churn, seed=1, universe=base_universe
        )
        before = base_result.population.address_set()
        after = evolved.address_set()
        assert after != before
        assert len(before - after) > 0   # deaths
        assert len(after - before) > 0   # births

    def test_zero_churn_is_identity_membership(self, base_result, base_universe):
        churn = ChurnModel(death_rate=0.0, birth_rate=0.0,
                           behavior_change_rate=0.0)
        evolved = evolve_population(
            base_result.population, churn, seed=1, universe=base_universe
        )
        assert evolved.address_set() == base_result.population.address_set()

    def test_behavior_swap_preserves_marginals(self, base_result, base_universe):
        churn = ChurnModel(death_rate=0.0, birth_rate=0.0,
                           behavior_change_rate=0.3)
        evolved = evolve_population(
            base_result.population, churn, seed=2, universe=base_universe
        )
        from collections import Counter

        before = Counter(a.cell_name for a in base_result.population.assignments)
        after = Counter(a.cell_name for a in evolved.assignments)
        assert before == after

    def test_births_live_in_universe(self, base_result, base_universe):
        from repro.netsim.ipv4 import ip_to_int

        churn = ChurnModel(death_rate=0.0, birth_rate=0.2)
        evolved = evolve_population(
            base_result.population, churn, seed=3, universe=base_universe
        )
        universe_set = set(base_universe)
        newcomers = evolved.address_set() - base_result.population.address_set()
        assert newcomers
        for ip in newcomers:
            assert ip_to_int(ip) in universe_set

    def test_geo_rebuilt_for_all_hosts(self, base_result, base_universe):
        churn = ChurnModel(death_rate=0.1, birth_rate=0.1)
        evolved = evolve_population(
            base_result.population, churn, seed=4, universe=base_universe
        )
        for assignment in evolved.assignments:
            assert evolved.geo.country_of(assignment.ip) == assignment.country


class TestSnapshot:
    def test_from_result(self, base_result):
        snapshot = snapshot_from_result(base_result)
        assert len(snapshot) == base_result.flow_set.r2_count
        assert snapshot.open_resolvers == base_result.estimates.ra_and_correct
        assert snapshot.incorrect_answers == base_result.correctness.incorrect
        assert snapshot.malicious_resolvers == base_result.malicious_flags.total

    def test_strict_criterion(self):
        assert record(ra=True, correct=True).open_by_strict_criterion
        assert not record(ra=False, correct=True).open_by_strict_criterion
        assert not record(ra=True, correct=False).open_by_strict_criterion


class TestDiff:
    def make_snapshots(self):
        before = Snapshot("t0", {
            "1.1.1.1": record("1.1.1.1"),
            "2.2.2.2": record("2.2.2.2", malicious=False, correct=False),
            "3.3.3.3": record("3.3.3.3"),
        })
        after = Snapshot("t1", {
            "1.1.1.1": record("1.1.1.1"),                       # unchanged
            "2.2.2.2": record("2.2.2.2", correct=False,
                              malicious=True),                  # turned bad
            "4.4.4.4": record("4.4.4.4"),                       # appeared
        })
        return before, after

    def test_diff_categories(self):
        before, after = self.make_snapshots()
        diff = diff_snapshots(before, after)
        assert diff.appeared == {"4.4.4.4"}
        assert diff.disappeared == {"3.3.3.3"}
        assert diff.behavior_changed == {"2.2.2.2"}
        assert diff.unchanged == {"1.1.1.1"}
        assert diff.turned_malicious == {"2.2.2.2"}
        assert diff.cleaned_up == set()

    def test_churn_rate(self):
        before, after = self.make_snapshots()
        diff = diff_snapshots(before, after)
        assert diff.churn_rate == pytest.approx(2 / 4)

    def test_summary_text(self):
        before, after = self.make_snapshots()
        text = diff_snapshots(before, after).summary()
        assert "+1 new" in text
        assert "-1 gone" in text
        assert "1 turned malicious" in text


class TestContinuousMonitor:
    def test_three_epochs(self):
        monitor = ContinuousMonitor(
            year=2018, scale=32768, seed=5,
            churn=ChurnModel(death_rate=0.1, birth_rate=0.08,
                             behavior_change_rate=0.05),
        )
        trend = monitor.run(epochs=3)
        assert len(monitor.epochs) == 3
        assert monitor.epochs[0].diff is None
        assert monitor.epochs[1].diff is not None
        assert len(trend.open_series) == 3
        assert trend.mean_churn_rate > 0.0
        assert trend.open_trend in ("rising", "falling", "flat")
        assert "open resolvers" in trend.summary()

    def test_leaves_later_campaigns_unchanged(self):
        # Epoch 0's population is the memoised world every later run
        # of the same config reuses; evolving it and re-applying the
        # transparent overlay must not write back into it.
        config = CampaignConfig(
            year=2018, scale=65536, seed=21, time_compression=16.0
        )
        before = Campaign(config).run().report()
        ContinuousMonitor(year=2018, scale=65536, seed=21).run(epochs=3)
        assert Campaign(config).run().report() == before

    def test_requires_epochs(self):
        monitor = ContinuousMonitor(scale=65536)
        with pytest.raises(ValueError):
            monitor.run(epochs=0)
        with pytest.raises(RuntimeError):
            monitor.trend()
