"""Unit tests for the fork+pipe transport and the engine's accounting.

Campaign-level byte identity across transports lives in
``tests/conformance/test_engines.py``; this file covers the process
rounds' own machinery — one shard task per child, the one result
message per child, fault paths, engine stats, and the loud fallback
when children cannot start.
"""

import dataclasses
import multiprocessing
import signal
import warnings

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.shard import CHAOS_EXIT_ENV, CHAOS_RAISE_ENV, run_sharded
from repro.monitor.churn import ChurnModel, evolve_population

SCALE = 65536

BASE = CampaignConfig(year=2018, scale=SCALE, seed=3, workers=2)


def _config(**overrides):
    return dataclasses.replace(BASE, **overrides)


class TestPopulationOverride:
    def test_forked_rounds_scan_the_evolved_world(self):
        # An evolved world cannot be re-derived from the seed: forked
        # children must scan exactly the population the parent holds.
        campaign = Campaign(_config())
        first = campaign.run()
        evolved = evolve_population(
            first.population, ChurnModel(), seed=4,
            universe=campaign.build_universe(),
        )
        forked = run_sharded(
            _config(), population_override=evolved, parallelism="process"
        )
        inline = run_sharded(
            _config(), population_override=evolved, parallelism="inline"
        )
        assert forked.engine_stats["transport"] == "pipe"
        assert inline.engine_stats["transport"] == "inline"
        assert forked.report() == inline.report()
        assert forked.report() != first.report()


class TestEngineStats:
    def test_process_engine_reports_transport_and_work(self):
        result = run_sharded(_config(), parallelism="process")
        stats = result.engine_stats
        assert stats["transport"] == "pipe"
        assert stats["workers"] == 2
        assert stats["rounds"] == 1
        assert stats["frames"] == 2
        assert stats["bytes_shipped"] > 0
        assert sorted(stats["worker_q1"]) == [0, 1]
        assert all(q1 > 0 for q1 in stats["worker_q1"].values())
        assert all(
            busy >= 0 for busy in stats["worker_busy_s"].values()
        )

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"mode": "stream", "drop_captures": True}],
        ids=["batch", "stream"],
    )
    def test_one_frame_per_shard(self, overrides):
        result = run_sharded(_config(**overrides), parallelism="process")
        assert result.engine_stats["frames"] == 2

    def test_compact_frames_are_smaller(self):
        fat = run_sharded(_config(), parallelism="process")
        slim = run_sharded(
            _config(mode="stream", drop_captures=True),
            parallelism="process",
        )
        assert (
            slim.engine_stats["bytes_shipped"]
            < fat.engine_stats["bytes_shipped"] / 4
        )


class TestResultPipe:
    @pytest.fixture
    def deadline(self):
        # A parent that joins a child before draining its pipe hangs
        # forever; fail the test instead.
        def expire(signum, frame):
            pytest.fail("forked round did not finish")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_messages_bigger_than_the_pipe_buffer_arrive_whole(
        self, deadline
    ):
        # Each batch shard at this scale sends ~100 KB, more than the OS
        # pipe buffer (64 KiB on Linux), so both children block on their
        # write in the same round until the parent drains them in turn.
        config = _config(scale=16384)
        forked = run_sharded(config, parallelism="process")
        assert forked.engine_stats["frames"] == 2
        assert forked.engine_stats["bytes_shipped"] > 2 * 65536
        inline = run_sharded(config, parallelism="inline")
        assert forked.report() == inline.report()


class TestValidation:
    def test_rejects_unknown_parallelism(self):
        with pytest.raises(ValueError):
            run_sharded(_config(), parallelism="threads")

    def test_config_rejects_unknown_engine(self):
        for engine in ("gpu", "pool"):
            with pytest.raises(ValueError):
                CampaignConfig(year=2018, scale=SCALE, seed=3, engine=engine)


class TestFaultPaths:
    def test_crashing_worker_degrades_after_retries(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "1:99")
        result = run_sharded(
            _config(max_shard_retries=1), parallelism="process"
        )
        assert result.degraded is not None
        assert [
            record.index for record in result.degraded.failed_shards
        ] == [1]

    def test_killed_worker_is_requeued_and_recovers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_EXIT_ENV, "1:1")
        result = run_sharded(
            _config(max_shard_retries=2), parallelism="process"
        )
        assert result.degraded is None
        assert result.engine_stats["rounds"] == 2
        reference = Campaign(_config(workers=1)).run()
        assert result.report() == reference.report()

    def test_inline_crash_degrades(self, monkeypatch):
        monkeypatch.setenv(CHAOS_RAISE_ENV, "0:99")
        result = run_sharded(
            _config(max_shard_retries=0), parallelism="inline"
        )
        assert result.degraded is not None


class TestCampaignDispatch:
    def test_engine_field_routes_to_multicore(self):
        result = Campaign(_config(engine="multicore")).run()
        assert result.engine_stats is not None
        assert result.engine_stats["transport"] == "pipe"

    @pytest.mark.parametrize(
        "workers, transport",
        [(1, "inline"), (2, "pipe")],
        ids=["inline", "process"],
    )
    def test_every_run_accounts_each_shard(self, workers, transport):
        # The benchmark divides by the mean busy time on every campaign
        # run, one-worker runs included.
        result = Campaign(_config(workers=workers)).run()
        stats = result.engine_stats
        assert stats["transport"] == transport
        assert sorted(stats["worker_busy_s"]) == list(range(workers))
        assert all(busy > 0 for busy in stats["worker_busy_s"].values())
        assert sorted(stats["worker_q1"]) == list(range(workers))
        assert sum(stats["worker_q1"].values()) == result.probe_summary.q1
        if workers == 1:
            assert stats["frames"] == stats["bytes_shipped"] == 0


class TestPoolFallbackIsLoud:
    """A sandboxed host (no semaphores, no fork) must not quietly run
    an N-worker campaign in one process: a round whose children cannot
    start warns once, counts ``campaign.pool_fallbacks`` and runs
    inline, unless ``parallelism="process"`` was forced."""

    @pytest.fixture
    def no_children(self, monkeypatch):
        def _refuse(self):
            raise OSError("semaphores unavailable")

        monkeypatch.setattr(multiprocessing.Process, "start", _refuse)

    def test_broken_executor_warns_and_counts(self, no_children):
        from repro.telemetry.hub import TelemetryConfig, as_hub

        hub = as_hub(TelemetryConfig())
        with pytest.warns(RuntimeWarning, match="shard round running inline"):
            result = run_sharded(_config(), telemetry=hub)
        assert result.degraded is None
        assert result.engine_stats["transport"] == "inline"
        assert sorted(result.engine_stats["worker_busy_s"]) == [0, 1]
        counters = hub.snapshot().metrics.counters
        assert counters.get("campaign.pool_fallbacks") == 1

    def test_forced_process_parallelism_still_raises(self, no_children):
        with pytest.raises(OSError):
            run_sharded(_config(), parallelism="process")

    def test_healthy_pool_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_sharded(_config())
        assert result.engine_stats["transport"] == "pipe"
        assert result.degraded is None
