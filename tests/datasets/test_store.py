"""Dataset persistence and offline analysis tests."""

import json

import pytest

from repro.core import Campaign, CampaignConfig
from repro.datasets import (
    analyze_dataset,
    load_campaign,
    save_campaign,
)


@pytest.fixture(scope="module")
def result():
    return Campaign(CampaignConfig(year=2018, scale=16384, seed=5)).run()


@pytest.fixture(scope="module")
def saved(result, tmp_path_factory):
    directory = tmp_path_factory.mktemp("dataset") / "campaign-2018"
    save_campaign(result, directory)
    return directory


class TestSaveLoad:
    def test_artifacts_exist(self, saved):
        for name in ("metadata.json", "r2.pcap", "auth_log.jsonl",
                     "cymon.jsonl", "geo.jsonl", "whois.jsonl"):
            assert (saved / name).exists(), name

    def test_metadata(self, result, saved):
        metadata = json.loads((saved / "metadata.json").read_text())
        assert metadata["year"] == 2018
        assert metadata["scale"] == 16384
        assert metadata["r2_count"] == result.capture.r2_count
        assert metadata["truth_ip"] == result.hierarchy.auth.ip

    def test_r2_records_roundtrip(self, result, saved):
        dataset = load_campaign(saved)
        assert len(dataset.r2_records) == len(result.capture.r2_records)
        original = sorted(r.payload for r in result.capture.r2_records)
        loaded = sorted(r.payload for r in dataset.r2_records)
        assert original == loaded

    def test_query_log_roundtrip(self, result, saved):
        dataset = load_campaign(saved)
        assert len(dataset.query_log) == len(result.query_log)
        assert dataset.query_log[0] == result.query_log[0]

    def test_intel_roundtrip(self, result, saved):
        dataset = load_campaign(saved)
        assert len(dataset.cymon) == len(result.population.cymon)
        assert len(dataset.geo) == len(result.population.geo)
        assert len(dataset.whois) == len(result.population.whois)

    def test_bad_format_version_rejected(self, saved, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(saved, bad)
        metadata = json.loads((bad / "metadata.json").read_text())
        metadata["format_version"] = 99
        (bad / "metadata.json").write_text(json.dumps(metadata))
        with pytest.raises(ValueError):
            load_campaign(bad)


class TestOfflineAnalysis:
    def test_tables_match_live_analysis(self, result, saved):
        """The offline pipeline reproduces the live tables bit for bit."""
        analysis = analyze_dataset(load_campaign(saved))
        assert analysis.correctness == result.correctness
        assert analysis.ra_table == result.ra_table
        assert analysis.aa_table == result.aa_table
        assert analysis.rcode_table == result.rcode_table
        assert analysis.estimates == result.estimates
        assert analysis.malicious_flags == result.malicious_flags
        assert analysis.country_distribution == result.country_distribution
        assert analysis.incorrect_forms == result.incorrect_forms
        assert analysis.malicious_categories == result.malicious_categories

    def test_probe_summary_counts(self, result, saved):
        analysis = analyze_dataset(load_campaign(saved))
        assert analysis.probe_summary.q1 == result.probe_summary.q1
        assert analysis.probe_summary.r2 == result.probe_summary.r2
        assert analysis.probe_summary.q2_r1 == result.probe_summary.q2_r1


class TestShardCheckpointDurability:
    """Crash-durability of the checkpoint store: atomic writes, fsync,
    quarantine of torn temp files."""

    FINGERPRINT = {"year": 2018, "scale": 4096, "seed": 3, "workers": 4}

    def _save(self, directory, index, outcome="outcome"):
        from repro.datasets.store import save_shard_checkpoint

        return save_shard_checkpoint(
            directory, self.FINGERPRINT, index, outcome
        )

    def _load(self, directory):
        from repro.datasets.store import load_shard_checkpoints

        return load_shard_checkpoints(directory, self.FINGERPRINT)

    def test_save_leaves_no_temp_files(self, tmp_path):
        self._save(tmp_path, 0)
        self._save(tmp_path, 1)
        assert list(tmp_path.glob("*.tmp")) == []
        assert sorted(self._load(tmp_path)) == [0, 1]

    def test_save_fsyncs_data_before_rename(self, tmp_path, monkeypatch):
        import os as real_os

        import repro.datasets.store as store

        calls = []
        original_fsync = real_os.fsync

        def recording_fsync(fd):
            calls.append(fd)
            return original_fsync(fd)

        monkeypatch.setattr(store.os, "fsync", recording_fsync)
        self._save(tmp_path, 0)
        # First save writes manifest and pickle: each fsyncs its data
        # file and the containing directory entry.
        assert len(calls) >= 4

    def test_crash_before_manifest_rename_leaves_no_torn_manifest(
        self, tmp_path, monkeypatch
    ):
        import repro.datasets.store as store

        def exploding_replace(src, dst):
            raise KeyboardInterrupt("crash between tmp-write and rename")

        monkeypatch.setattr(store.os, "replace", exploding_replace)
        with pytest.raises(KeyboardInterrupt):
            self._save(tmp_path, 0)
        # The real name never exists torn; only the tmp file does.
        assert not (tmp_path / "shards.json").exists()
        monkeypatch.undo()
        # A later (post-restart) load quarantines the leftover and
        # resumes to nothing rather than choking on torn JSON.
        assert self._load(tmp_path) == {}

    def test_load_quarantines_stray_tmp_files(self, tmp_path):
        self._save(tmp_path, 0)
        self._save(tmp_path, 1)
        torn = tmp_path / "shard_0002.pkl.tmp"
        torn.write_bytes(b"\x80\x05half-a-pickle")
        outcomes = self._load(tmp_path)
        assert sorted(outcomes) == [0, 1]
        assert not torn.exists()
        quarantined = tmp_path / "shard_0002.pkl.tmp.quarantined"
        assert quarantined.exists()
        # Quarantined leftovers stay quarantined on the next load.
        assert sorted(self._load(tmp_path)) == [0, 1]
        assert quarantined.exists()
