"""Golden byte-identity and end-to-end telemetry coverage.

The overriding contract: telemetry is an *observer*. Tables II–X must
be byte-identical with telemetry enabled — serial or sharded, batch or
stream — at the same (seed, scale, year). These tests pin that, plus
that the observation itself is faithful (counters agree with the
capture ledger) and that the CLI export surface works.
"""

import dataclasses
import json

import pytest

from repro.core import Campaign, CampaignConfig
from repro.core.shard import run_sharded
from repro.telemetry import TelemetryConfig, TelemetryHub

from tests.conftest import E2E_SCALE

CONFIG = CampaignConfig(year=2018, scale=E2E_SCALE, seed=11)


@pytest.fixture(scope="module")
def observed():
    """The session world re-run with full telemetry attached."""
    return Campaign(CONFIG).run(telemetry=TelemetryConfig())


class TestByteIdentitySerial:
    def test_batch_report_identical(self, result_2018, observed):
        assert observed.report() == result_2018.report()

    def test_result_carries_snapshot(self, observed):
        snapshot = observed.telemetry
        assert snapshot is not None
        assert snapshot.metrics.counters["prober.q1_wire_sent"] > 0
        assert snapshot.heartbeats
        assert snapshot.spans

    def test_no_telemetry_leaves_field_none(self, result_2018):
        assert result_2018.telemetry is None

    def test_counters_agree_with_capture_ledger(self, observed):
        counters = observed.telemetry.metrics.counters
        capture = observed.capture
        assert counters["prober.q1_targets"] == capture.q1_sent
        # With the fast=True responder-hint accelerator, probes to
        # non-responders are accounted but never materialized on the
        # wire, so the wire counter sits between the responder count
        # and the walked-target count (exact equality is pinned by
        # test_unaccelerated_wire_counts_are_exact).
        assert (
            capture.r2_count
            <= counters["prober.q1_wire_sent"]
            <= capture.q1_sent + capture.retries_sent
        )
        assert counters["prober.r2_delivered"] == capture.r2_count
        assert counters["auth.queries_served"] == len(observed.query_log)
        assert counters["prober.clusters_installed"] == (
            capture.cluster_stats.clusters_created
        )
        assert counters["auth.zone_installs"] == (
            capture.cluster_stats.clusters_created
        )

    def test_unaccelerated_wire_counts_are_exact(self):
        # fast=False materializes every walked probe, so the sink's
        # wire counter must equal the ledger exactly.
        config = dataclasses.replace(CONFIG, scale=65536, seed=3, fast=False)
        result = Campaign(config).run(telemetry=TelemetryConfig())
        counters = result.telemetry.metrics.counters
        capture = result.capture
        assert counters["prober.q1_wire_sent"] == (
            capture.q1_sent + capture.retries_sent
        )
        assert counters["prober.r2_delivered"] == capture.r2_count

    def test_latency_histogram_covers_joined_flows(self, observed):
        histogram = observed.telemetry.metrics.histograms[
            "prober.q1_to_r2_latency_s"
        ]
        # Every delivered R2 whose qname parsed closes a latency pair.
        assert histogram["count"] > 0
        assert histogram["count"] <= observed.capture.r2_count
        assert histogram["min"] > 0.0

    def test_span_tree_covers_campaign_phases(self, observed):
        spans = observed.telemetry.spans
        by_name = {span["name"]: span for span in spans}
        for name in ("campaign", "shard_execution", "shard", "merge",
                     "build_parent_world", "analyze"):
            assert name in by_name, f"missing span {name!r}"
        campaign = by_name["campaign"]
        assert campaign["parent"] is None
        execution = by_name["shard_execution"]
        assert execution["parent"] == campaign["span_id"]
        assert by_name["shard"]["parent"] == execution["span_id"]
        for name in ("merge", "build_parent_world", "analyze"):
            assert by_name[name]["parent"] == campaign["span_id"]
        assert by_name["shard"]["end_sim"] > by_name["shard"]["start_sim"]

    def test_heartbeats_monotone_and_progressing(self, observed):
        beats = observed.telemetry.heartbeats
        times = [beat["sim_time"] for beat in beats]
        assert times == sorted(times)
        q1 = [beat["q1_wire_sent"] for beat in beats]
        assert q1 == sorted(q1)
        assert q1[-1] > 0
        assert "scheduler.pending_events" in beats[0]["gauges"]


class TestByteIdentitySharded:
    @pytest.fixture(scope="class")
    def sharded_config(self):
        return dataclasses.replace(
            CONFIG, workers=4, fault_profile="hostile",
            mode="stream", drop_captures=True,
        )

    @pytest.fixture(scope="class")
    def plain(self, sharded_config):
        return run_sharded(sharded_config, parallelism="inline")

    @pytest.fixture(scope="class")
    def traced(self, sharded_config):
        return run_sharded(
            sharded_config, parallelism="inline",
            telemetry=TelemetryConfig(),
        )

    def test_stream_sharded_report_identical(self, plain, traced):
        assert traced.report() == plain.report()

    def test_shard_snapshots_merge_into_campaign_totals(self, traced):
        counters = traced.telemetry.metrics.counters
        assert counters["campaign.shards_completed"] == 4
        assert counters["prober.q1_wire_sent"] > 0
        assert counters["stream.flows_opened"] > 0
        assert counters["fault.latency_spike_windows"] > 0

    def test_heartbeats_tagged_by_shard(self, traced):
        shards = {beat.get("shard") for beat in traced.telemetry.heartbeats}
        assert shards == {0, 1, 2, 3}

    def test_shard_spans_reparented_under_execution(self, traced):
        spans = traced.telemetry.spans
        by_id = {span["span_id"]: span for span in spans}
        shard_spans = [span for span in spans if span["name"] == "shard"]
        assert len(shard_spans) == 4
        for span in shard_spans:
            assert by_id[span["parent"]]["name"] == "shard_execution"
            assert "shard" in span["meta"]

    def test_telemetry_config_stays_out_of_fingerprint(self):
        from repro.core.shard import checkpoint_fingerprint

        fingerprint = checkpoint_fingerprint(CONFIG)
        assert "telemetry" not in fingerprint


class TestResumeCompat:
    def test_resume_merges_checkpointed_snapshots(self, tmp_path):
        config = dataclasses.replace(
            CONFIG, scale=65536, seed=3, workers=4
        )
        checkpoint_dir = tmp_path / "ckpt"
        run_sharded(
            config, parallelism="inline", checkpoint_dir=checkpoint_dir,
            telemetry=TelemetryConfig(),
        )
        resumed = run_sharded(
            config, parallelism="inline", checkpoint_dir=checkpoint_dir,
            resume=True, telemetry=TelemetryConfig(),
        )
        counters = resumed.telemetry.metrics.counters
        assert counters["campaign.shards_completed"] == 4
        assert counters["prober.q1_wire_sent"] > 0

    def test_pre_telemetry_checkpoints_resume_cleanly(self, tmp_path):
        # A checkpoint written before the telemetry field existed
        # unpickles without the attribute; resume must tolerate it.
        import pickle

        from repro.datasets.store import _shard_filename

        config = dataclasses.replace(
            CONFIG, scale=65536, seed=3, workers=4
        )
        checkpoint_dir = tmp_path / "ckpt"
        run_sharded(
            config, parallelism="inline", checkpoint_dir=checkpoint_dir,
        )
        for index in range(4):
            path = checkpoint_dir / _shard_filename(index)
            outcome = pickle.loads(path.read_bytes())
            if hasattr(outcome, "telemetry"):
                del outcome.telemetry
            path.write_bytes(pickle.dumps(outcome))
        resumed = run_sharded(
            config, parallelism="inline", checkpoint_dir=checkpoint_dir,
            resume=True, telemetry=TelemetryConfig(),
        )
        assert resumed.telemetry is not None
        assert (
            resumed.telemetry.metrics.counters["campaign.shards_completed"]
            == 4
        )


class TestFlightDump:
    def test_chaos_killed_shard_dumps_flight_recorder(
        self, tmp_path, monkeypatch
    ):
        from repro.core.shard import CHAOS_RAISE_ENV

        monkeypatch.setenv(CHAOS_RAISE_ENV, "1:1")
        config = dataclasses.replace(
            CONFIG, scale=65536, seed=3, workers=4, max_shard_retries=2
        )
        dump_dir = tmp_path / "post-mortem"
        result = run_sharded(
            config, parallelism="inline",
            telemetry=TelemetryConfig(flight_dump_dir=str(dump_dir)),
        )
        assert result.degraded is None  # retry recovered the shard
        dumps = sorted(dump_dir.glob("flight_shard_*.json"))
        assert dumps, "chaos kill produced no flight dump"
        document = json.loads(dumps[0].read_text())
        assert document["capacity"] > 0
        assert "reason" in document


class TestCliExport:
    def test_scan_writes_metrics_and_trace(self, tmp_path, capsys):
        from repro.cli.main import main

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main([
            "scan", "--scale", "65536", "--seed", "3", "--workers", "2",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["prober.q1_wire_sent"] > 0
        assert metrics["heartbeats"]
        trace = json.loads(trace_path.read_text())
        names = {span["name"] for span in trace["spans"]}
        assert "shard_execution" in names
        out = capsys.readouterr().out
        assert "metrics" in out.lower()

    def test_scan_without_flags_runs_untelemetered(self, capsys):
        from repro.cli.main import main

        code = main(["scan", "--scale", "262144", "--seed", "3"])
        assert code == 0
