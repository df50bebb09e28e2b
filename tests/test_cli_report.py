"""The experiments CLI and the EXPERIMENTS.md report generator."""

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.report import generate

pytestmark = pytest.mark.integration


class TestCLI:
    def test_runs_single_experiment(self, capsys):
        rc = cli_main(["e2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "E2" in out and "Per-object placement impact" in out
        assert "bw-1/2" in out

    def test_unknown_experiment_errors(self, capsys):
        # "bench" names no verb, so it is an unknown experiment id.
        for name in ("e99", "bench"):
            rc = cli_main([name])
            err = capsys.readouterr().err
            assert rc == 2
            assert "unknown experiment" in err

    def test_multiple_experiments(self, capsys):
        rc = cli_main(["e2", "e5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "E2" in out and "E5" in out


class TestReport:
    def test_generate_fast_contains_all_experiments(self, monkeypatch):
        # Shrink the rosters so the full-report path stays test-sized.
        import repro.experiments.e1_gap as e1
        import repro.experiments.e3_headtohead as e3
        import repro.experiments.e4_breakdown as e4
        import repro.experiments.e5_migration_stats as e5
        import repro.experiments.e7_dram_size as e7
        import repro.experiments.e8_optane as e8
        import repro.experiments.e10_energy_oracle as e10

        monkeypatch.setattr(e1, "WORKLOADS", ("heat", "health"))
        monkeypatch.setattr(e3, "STANDARD_WORKLOADS", ("heat", "health"), raising=False)
        for mod in (e4, e5, e7, e8, e10):
            monkeypatch.setattr(mod, "WORKLOADS", ("heat",), raising=False)
        text = generate(fast=True)
        for i in range(1, 11):
            assert f"## E{i} " in text or f"## E{i}" in text
        assert "expected vs measured" in text
        assert "```text" in text
