"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.sweep import sweep_names


class TestList:
    def test_list_prints_inventory(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure9" in out
        assert "ycsb F" in out

    def test_experiment_registry_covers_all_figures(self):
        for name in ("table1", "figure1", "figure6", "figure7",
                     "figure8", "figure9"):
            assert name in sweep_names()


class TestExperimentCommand:
    """Tables and figures are regenerated by ``repro sweep``; the old
    ``repro experiment`` command no longer exists."""

    def test_quick_figure1(self, capsys, tmp_path):
        out_file = tmp_path / "fig1.json"
        assert main(["sweep", "figure1", "--scale", "quick", "-j", "1",
                     "--no-cache", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Impact of Clock Skew" in out
        assert out_file.exists()
        assert "reject rate" in out_file.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure1"])


class TestSweepCommand:
    def test_list_prints_sweeps(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure8" in out
        assert "nemesis" in out
        assert "selftest" not in out  # hidden test-only sweep

    def test_no_name_is_a_usage_error(self):
        assert main(["sweep"]) == 2

    def test_selftest_sweep_cold_then_warm_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold_out = tmp_path / "cold.json"
        warm_out = tmp_path / "warm.json"
        assert main(["sweep", "selftest", "-j", "1",
                     "--cache-dir", cache_dir,
                     "--out", str(cold_out)]) == 0
        assert "Sweep selftest" in capsys.readouterr().out
        assert main(["sweep", "selftest", "-j", "1",
                     "--cache-dir", cache_dir,
                     "--out", str(warm_out),
                     "--min-hit-rate", "0.9"]) == 0
        assert cold_out.read_bytes() == warm_out.read_bytes()

    def test_min_hit_rate_fails_without_cache(self, tmp_path):
        assert main(["sweep", "selftest", "-j", "1", "--no-cache",
                     "--min-hit-rate", "0.9"]) == 1

    def test_unknown_sweep_is_a_usage_error(self):
        assert main(["sweep", "figure99", "--no-cache"]) == 2


class TestWorkloadCommands:
    def test_retwis_run(self, capsys):
        assert main(["retwis", "--clients", "2", "--keys", "100",
                     "--duration", "0.05", "--backend", "dram",
                     "--replicas", "1"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "latency p99" in out

    def test_retwis_without_local_validation(self, capsys):
        assert main(["retwis", "--clients", "2", "--keys", "100",
                     "--duration", "0.05", "--backend", "dram",
                     "--replicas", "1", "--no-local-validation"]) == 0

    def test_ycsb_run(self, capsys):
        assert main(["ycsb", "--workload", "C", "--clients", "2",
                     "--keys", "100", "--duration", "0.05",
                     "--backend", "dram", "--replicas", "1"]) == 0
        out = capsys.readouterr().out
        assert "YCSB-C" in out
        assert "ops/s" in out

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["retwis", "--backend", "tape"])
