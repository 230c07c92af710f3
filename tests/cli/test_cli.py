"""CLI tests: every subcommand runs end to end at a coarse scale."""

import hashlib

import pytest

from repro.cli import build_parser, main


def _digest(out: str) -> str:
    """sha256 of a command's stdout: any byte that moves is a change in
    the command or in the code it runs."""
    return hashlib.sha256(out.encode()).hexdigest()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scan_defaults(self):
        args = build_parser().parse_args(["scan"])
        assert args.year == 2018
        assert args.scale == 8192

    def test_year_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--year", "2020"])


class TestCommands:
    def test_scan_summary(self, capsys):
        assert main(["scan", "--scale", "65536", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "open resolvers" in out

    def test_scan_full_report(self, capsys):
        assert main(
            ["scan", "--scale", "65536", "--seed", "1", "--full-report"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Table X" in out

    def test_scan_save_then_analyze(self, capsys, tmp_path):
        dataset_dir = str(tmp_path / "ds")
        assert main(
            ["scan", "--scale", "65536", "--seed", "1", "--save", dataset_dir]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", dataset_dir]) == 0
        out = capsys.readouterr().out
        assert "Offline analysis" in out
        assert "Table VIII" in out or "IP address" in out

    def test_scan_markdown(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(
            ["scan", "--scale", "65536", "--seed", "1", "--markdown",
             str(target)]
        ) == 0
        assert target.exists()
        assert "# Open-resolver scan report" in target.read_text()

    def test_compare(self, capsys):
        assert main(["compare", "--scale", "32768", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Open resolvers" in out
        assert "declined" in out

    def test_fingerprint(self, capsys):
        assert main(["fingerprint", "--scale", "32768", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "version.bind census" in out
        assert _digest(out) == (
            "cc0a2987905161f4d73845061f5dc6954d6b1c2a9da6104ab95ffdace08b3d73"
        )

    def test_monitor(self, capsys):
        assert main(
            ["monitor", "--epochs", "2", "--scale", "65536", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert "Trend:" in out

    def test_exposure(self, capsys):
        assert main(
            ["exposure", "--clients", "30", "--queries", "3",
             "--resolvers", "10", "--malicious-share", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "hijacked" in out

    def test_amplify(self, capsys):
        assert main(["amplify", "--resolvers", "5", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Amplification factors" in out
        assert "victim absorbed" in out

    def test_amplify_output_is_pinned(self, capsys):
        # The factor table and the spoofed attack are fully seeded: any
        # byte that moves is a change in the reflection attack or in the
        # servers it bounces off.
        assert main(["amplify", "--resolvers", "5", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ec241eb3d2a995bc979654cb69eee81971548cd306272878990354574a125e58"
        )

    def test_dnssec(self, capsys):
        assert main(["dnssec", "--scale", "32768", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "DNSSEC validator census" in out
        assert _digest(out) == (
            "f653304fa27c9bb989fa4e05b61fd340f7a9d868f79c3764da1ab48283fff27d"
        )

    def test_dnssec_validation(self, capsys):
        assert main(
            ["dnssec", "--scale", "32768", "--seed", "1", "--validation"]
        ) == 0
        out = capsys.readouterr().out
        assert "DNSSEC validation behavior" in out
        assert _digest(out) == (
            "00c5c9d3e99210116c721306bae5f00fd717fae3a035400456b3be3eccdd6191"
        )

    def test_classify(self, capsys):
        assert main(
            ["classify", "--recursives", "3", "--proxies", "6",
             "--fabricators", "2", "--upstreams", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "forwarding proxy" in out

    def test_classify_transparent(self, capsys):
        assert main(
            ["classify", "--recursives", "5", "--proxies", "10",
             "--fabricators", "3", "--upstreams", "3", "--transparent", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "transparent fan-in" in out
        assert _digest(out) == (
            "3d7ce739f8622a218822a2fc13394aeea39b2ecd5c38427bb33aff90daf3fbb5"
        )

    def test_inject(self, capsys):
        assert main(["inject", "--resolvers", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Record-injection test" in out
        assert _digest(out) == (
            "6c3f58b4f169ad37260ed16b52a8ed515e62bec56d5672c8e678483d3a181f76"
        )

    def test_sweep(self, capsys):
        assert main(["sweep", "--scale", "65536", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Seed sweep" in out
        assert "open_resolvers" in out


class TestFaultAndResumeFlags:
    def test_fault_flag_defaults(self):
        args = build_parser().parse_args(["scan"])
        assert args.fault_profile == "none"
        assert args.max_shard_retries == 2
        assert args.checkpoint is None
        assert args.resume is None

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "--fault-profile", "chaotic"])

    def test_scan_with_fault_profile(self, capsys):
        assert main(
            ["scan", "--scale", "65536", "--seed", "1",
             "--fault-profile", "hostile"]
        ) == 0
        out = capsys.readouterr().out
        assert "faults 'hostile'" in out
        assert "open resolvers" in out

    def test_scan_checkpoint_then_resume(self, capsys, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        base = ["scan", "--scale", "65536", "--seed", "1", "--workers", "2"]
        assert main(base + ["--checkpoint", checkpoint_dir]) == 0
        first = capsys.readouterr().out
        assert len(list((tmp_path / "ckpt").glob("shard_*.pkl"))) == 2
        assert main(base + ["--resume", checkpoint_dir]) == 0
        resumed = capsys.readouterr().out
        assert "resuming from" in resumed
        # Same summary lines after the (differing) scan headers.
        assert first.splitlines()[1:] == resumed.splitlines()[1:]

    def test_resume_from_mismatched_checkpoint_fails_cleanly(
        self, capsys, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        assert main(
            ["scan", "--scale", "65536", "--seed", "1", "--workers", "2",
             "--checkpoint", checkpoint_dir]
        ) == 0
        capsys.readouterr()
        assert main(
            ["scan", "--scale", "65536", "--seed", "2", "--workers", "2",
             "--resume", checkpoint_dir]
        ) == 2
        out = capsys.readouterr().out
        assert "Cannot resume from" in out


class TestScanExitCodes:
    def test_degraded_campaign_exits_3(self, capsys, monkeypatch):
        from repro.core.shard import CHAOS_RAISE_ENV

        # Kill shard 1 on every attempt with retries off: the scan
        # completes degraded and must say so in its exit code.
        monkeypatch.setenv(CHAOS_RAISE_ENV, "1:99")
        assert main(
            ["scan", "--scale", "65536", "--seed", "1", "--workers", "2",
             "--max-shard-retries", "0"]
        ) == 3
        captured = capsys.readouterr()
        assert "degraded campaign" in captured.err
        assert "exiting 3" in captured.err

    def test_min_coverage_above_healthy_run_passes(self, capsys):
        assert main(
            ["scan", "--scale", "65536", "--seed", "1",
             "--min-coverage", "0.99"]
        ) == 0
        assert "degraded" not in capsys.readouterr().err

    def test_min_coverage_rejects_bad_fraction(self, capsys):
        assert main(
            ["scan", "--scale", "65536", "--min-coverage", "1.5"]
        ) == 2
        assert "fraction" in capsys.readouterr().out


class TestAttackCommand:
    #: Cheap matrix: 1 family x 4 postures at a small schedule.
    FAST = ["attack", "--seed", "5", "--resolvers", "3",
            "--attack-queries", "24", "--families", "nxns"]

    def test_smoke(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "Attack x defense matrix" in out
        assert "nxns" in out
        assert "hardened" in out

    def test_unknown_family_rejected(self, capsys):
        assert main(["attack", "--families", "slowloris"]) == 2
        assert "unknown attack families" in capsys.readouterr().out

    def test_markdown_and_metrics_outputs(self, capsys, tmp_path):
        import json

        markdown = tmp_path / "attack.md"
        metrics = tmp_path / "metrics.json"
        assert main(
            self.FAST
            + ["--markdown", str(markdown), "--metrics-out", str(metrics)]
        ) == 0
        assert "Attack x defense matrix" in markdown.read_text()
        document = json.loads(metrics.read_text())
        assert document["counters"]["attacks.cells_run"] == 8

    def test_scan_attacks_flag_appends_matrix(self, capsys):
        assert main(
            ["scan", "--scale", "65536", "--seed", "1", "--attacks",
             "--full-report"]
        ) == 0
        assert "Attack x defense matrix" in capsys.readouterr().out
