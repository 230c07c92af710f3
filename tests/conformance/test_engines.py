"""Transport conformance: in-process vs forked rounds, byte for byte.

Every campaign runs through :func:`run_sharded`, whose rounds run their
shards either in this process (``parallelism="inline"``) or in forked
children that each send their outcome back as one message on a pipe
(``parallelism="process"``, the ``repro.core.multicore`` transport).
The second changes *everything* about execution — process topology,
wire format, dispatch granularity — and *nothing* about the
measurement: for a fixed config, every worker count and both
transports must render the serial report byte-identically, under clean
and bursty-fault profiles, through mid-campaign interruption and
resume, and across transports sharing one checkpoint directory.

Test names keep the engines' historical names: "multicore" is the
process transport, "pool" the in-process reference it is compared with.
"""

import dataclasses

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.shard import (
    CHAOS_RAISE_ENV,
    checkpoint_fingerprint,
    run_sharded,
)
from repro.datasets.store import load_shard_checkpoints
from repro.stream.codec import OUTCOME_BUDGET_BYTES

SCALE = 65536

BASE = CampaignConfig(year=2018, scale=SCALE, seed=3)

WORKER_COUNTS = (1, 2, 4, 8)


def _config(**overrides):
    return dataclasses.replace(BASE, **overrides)


def _inline(**overrides):
    return run_sharded(_config(**overrides), parallelism="inline")


def _process(**overrides):
    return run_sharded(_config(**overrides), parallelism="process")


def _assert_same_tables(result, reference):
    assert result.report() == reference.report()
    assert result.forwarder_table == reference.forwarder_table
    assert result.validation_table == reference.validation_table


@pytest.fixture(scope="module")
def serial_batch():
    return Campaign(BASE).run()


class TestCleanProfileMatrix:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_inline_matches_serial(self, serial_batch, workers):
        _assert_same_tables(_inline(workers=workers), serial_batch)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_multicore_matches_serial(self, serial_batch, workers):
        _assert_same_tables(_process(workers=workers), serial_batch)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_inline_stream_matches_serial(self, serial_batch, workers):
        streamed = _inline(workers=workers, mode="stream", drop_captures=True)
        _assert_same_tables(streamed, serial_batch)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_multicore_stream_matches_serial(self, serial_batch, workers):
        streamed = _process(
            workers=workers, mode="stream", drop_captures=True
        )
        _assert_same_tables(streamed, serial_batch)


class TestBurstyProfileMatrix:
    # Worker counts are distinct populations under faults (loss lands
    # per-shard, on the shard's own seed), so the reference is the
    # in-process run at the same worker count, never the one-shard run.
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_multicore_matches_pool_same_workers(self, workers):
        inline = _inline(fault_profile="bursty", workers=workers)
        forked = _process(fault_profile="bursty", workers=workers)
        _assert_same_tables(forked, inline)


class TestProcessTransports:
    def test_child_processes_match_serial(self, serial_batch):
        result = _process(workers=4)
        assert result.engine_stats["transport"] == "pipe"
        _assert_same_tables(result, serial_batch)

    def test_stream_compact_frames_over_processes(self, serial_batch):
        result = _process(workers=4, mode="stream", drop_captures=True)
        assert result.engine_stats["frames"] == 4
        assert result.engine_stats["bytes_shipped"] < 4 * OUTCOME_BUDGET_BYTES
        _assert_same_tables(result, serial_batch)


class TestResumeMidCampaign:
    @pytest.mark.parametrize("profile", ["none", "bursty"])
    def test_interrupted_multicore_resumes_identically(
        self, monkeypatch, tmp_path, profile
    ):
        config = _config(
            fault_profile=profile, workers=4, max_shard_retries=0,
        )
        checkpoint_dir = tmp_path / "ckpt"
        monkeypatch.setenv(CHAOS_RAISE_ENV, "3:99")
        interrupted = run_sharded(
            config, parallelism="process", checkpoint_dir=checkpoint_dir
        )
        assert interrupted.degraded is not None
        saved = load_shard_checkpoints(
            checkpoint_dir, checkpoint_fingerprint(config)
        )
        assert sorted(saved) == [0, 1, 2]

        monkeypatch.delenv(CHAOS_RAISE_ENV)
        resumed = run_sharded(
            config,
            parallelism="process",
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        assert resumed.degraded is None
        assert resumed.engine_stats["resumed_shards"] == 3
        full = _inline(fault_profile=profile, workers=4)
        _assert_same_tables(resumed, full)


class TestCheckpointInterchange:
    """One checkpoint directory, two transports: shards written by
    in-process rounds resume under forked ones and the other way
    round."""

    def test_pool_checkpoints_resume_under_multicore(
        self, monkeypatch, tmp_path
    ):
        config = _config(workers=4, max_shard_retries=0)
        checkpoint_dir = tmp_path / "ckpt"
        monkeypatch.setenv(CHAOS_RAISE_ENV, "3:99")
        run_sharded(
            config, parallelism="inline", checkpoint_dir=checkpoint_dir
        )
        monkeypatch.delenv(CHAOS_RAISE_ENV)
        resumed = run_sharded(
            config,
            parallelism="process",
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        assert resumed.degraded is None
        _assert_same_tables(resumed, _inline(workers=4))

    def test_multicore_checkpoints_resume_under_pool(
        self, monkeypatch, tmp_path
    ):
        config = _config(workers=4, max_shard_retries=0)
        checkpoint_dir = tmp_path / "ckpt"
        monkeypatch.setenv(CHAOS_RAISE_ENV, "2:99")
        run_sharded(
            config, parallelism="process", checkpoint_dir=checkpoint_dir
        )
        monkeypatch.delenv(CHAOS_RAISE_ENV)
        resumed = run_sharded(
            config,
            parallelism="inline",
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        assert resumed.degraded is None
        _assert_same_tables(resumed, _inline(workers=4))
