"""Integration: run every experiment (small sizes) and assert the shapes
the paper's figures show.  These are the regression tests for the
reproduction itself."""

import math

import pytest

from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments import runner as runner_mod
from repro.experiments.e1_gap import run as run_e1
from repro.experiments.e13_service import LOAD_FACTORS, run as run_e13
from repro.experiments.e3_headtohead import run as run_e3
from repro.experiments.e5_migration_stats import run as run_e5
from repro.experiments.e7_dram_size import run as run_e7
from repro.experiments.e8_optane import run as run_e8


pytestmark = pytest.mark.integration


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {f"e{i}" for i in range(1, 14)}

    def test_get_experiment(self):
        assert get_experiment("E3").EXPERIMENT == "E3"
        with pytest.raises(KeyError):
            get_experiment("e99")


class TestE1Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e1(fast=True, workloads=("heat", "health", "cg"))

    def test_monotone_along_bandwidth_axis(self, result):
        m = result.metrics
        for wl in ("heat", "health", "cg"):
            assert m[f"{wl}/bw-0.5"] <= m[f"{wl}/bw-0.25"] + 0.02
            assert m[f"{wl}/bw-0.25"] <= m[f"{wl}/bw-0.125"] + 0.02

    def test_monotone_along_latency_axis(self, result):
        m = result.metrics
        for wl in ("heat", "health", "cg"):
            assert m[f"{wl}/lat-2x"] <= m[f"{wl}/lat-4x"] + 0.02
            assert m[f"{wl}/lat-4x"] <= m[f"{wl}/lat-8x"] + 0.02

    def test_sensitivity_split(self, result):
        m = result.metrics
        # heat: bandwidth-sensitive, latency-insensitive
        assert m["heat/bw-0.5"] > 1.5
        assert m["heat/lat-4x"] < 1.1
        # health: the opposite
        assert m["health/lat-4x"] > 1.4
        assert m["health/bw-0.5"] < 1.2
        # cg: both
        assert m["cg/bw-0.5"] > 1.2 and m["cg/lat-4x"] > 1.2

    def test_magnitudes_in_paper_band(self, result):
        for v in result.metrics.values():
            assert 0.95 <= v <= 9.0


class TestE3Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e3(fast=True, workloads=("cg", "heat", "health", "nbody"))

    def test_manager_never_worse_than_nvm_only(self, result):
        m = result.metrics
        for wl in ("cg", "heat", "health", "nbody"):
            for cfg in ("bw-1/2", "lat-4x"):
                assert m[f"{wl}/{cfg}/tahoe"] <= m[f"{wl}/{cfg}/nvm-only"] + 0.03

    def test_gap_closure_substantial(self, result):
        assert result.metrics["gap_closure/bw-1/2"] > 0.4
        assert result.metrics["gap_closure/lat-4x"] > 0.4

    def test_manager_competitive_with_xmem(self, result):
        m = result.metrics
        deltas = [
            m[f"{wl}/{cfg}/tahoe"] - m[f"{wl}/{cfg}/xmem"]
            for wl in ("cg", "heat", "nbody")
            for cfg in ("bw-1/2", "lat-4x")
        ]
        assert sum(deltas) / len(deltas) < 0.05

    def test_tables_rendered(self, result):
        text = result.render()
        assert "Fig. 9 analogue" in text and "Fig. 10 analogue" in text


class TestE5Shapes:
    def test_overhead_and_overlap(self):
        result = run_e5(fast=True, workloads=("cg", "heat", "health"))
        for wl in ("cg", "heat", "health"):
            assert result.metrics[f"{wl}/overhead_pct"] < 6.0
            assert result.metrics[f"{wl}/overlap_pct"] >= 0.0


class TestE7Shapes:
    def test_more_dram_never_hurts_much(self):
        result = run_e7(fast=True, workloads=("cg", "heat"))
        m = result.metrics
        for wl in ("cg", "heat"):
            assert m[f"{wl}/512MiB"] <= m[f"{wl}/128MiB"] + 0.05
            assert m[f"{wl}/256MiB"] <= m[f"{wl}/nvm"] + 0.03


class TestE8Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e8(fast=True, workloads=("cg", "nbody", "heat"))

    def test_optane_gap_large(self, result):
        m = result.metrics
        assert all(m[f"{wl}/nvm-only"] > 1.5 for wl in ("cg", "nbody", "heat"))

    def test_drw_helps_on_average(self, result):
        m = result.metrics
        with_drw = sum(m[f"{wl}/tahoe"] for wl in ("cg", "nbody", "heat"))
        without = sum(m[f"{wl}/tahoe-nodrw"] for wl in ("cg", "nbody", "heat"))
        assert with_drw <= without + 0.05

    def test_manager_beats_nvm_by_a_lot(self, result):
        m = result.metrics
        for wl in ("cg", "nbody", "heat"):
            assert m[f"{wl}/tahoe"] < m[f"{wl}/nvm-only"] * 0.8


class TestE13Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e13(fast=True)

    def test_reject_rate_monotone_in_offered_load(self, result):
        m = result.metrics
        for policy in ("tahoe", "nvm-only"):
            rates = [m[f"{policy}/x{load:g}/reject_rate"] for load in LOAD_FACTORS]
            assert rates[0] == 0.0  # low load: nothing shed
            assert all(b >= a - 0.05 for a, b in zip(rates, rates[1:]))
            assert rates[-1] > 0.0  # past saturation: load is shed

    def test_admitted_slowdown_stays_bounded(self, result):
        # Admission shedding is the point: admitted jobs never see an
        # unbounded open-system queue even past the saturation knee.
        m = result.metrics
        for policy in ("tahoe", "nvm-only"):
            for load in LOAD_FACTORS:
                assert 1.0 <= m[f"{policy}/x{load:g}/p99_slowdown"] < 10.0

    def test_manager_sheds_no_more_than_nvm_only(self, result):
        m = result.metrics
        total_tahoe = sum(m[f"tahoe/x{load:g}/reject_rate"] for load in LOAD_FACTORS)
        total_nvm = sum(m[f"nvm-only/x{load:g}/reject_rate"] for load in LOAD_FACTORS)
        assert total_tahoe <= total_nvm + 0.05

    def test_tables_rendered(self, result):
        text = result.render()
        assert "slowdown" in text and "round" in text


class TestRunnerHelpers:
    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            runner_mod.make_policy("bogus")

    def test_policy_factories_fresh_instances(self):
        a = runner_mod.make_policy("tahoe")
        b = runner_mod.make_policy("tahoe")
        assert a is not b

    def test_variant_factories_apply_overrides(self):
        p = runner_mod.make_policy("tahoe-nodrw")
        assert p.config.plan.distinguish_rw is False
        p2 = runner_mod.make_policy(
            "tahoe", name="tahoe-globalonly", enable_local_search=False
        )
        assert p2.config.enable_local_search is False
        assert p2.name == "tahoe-globalonly"

    def test_workload_params_fast_vs_full(self):
        assert runner_mod.workload_params("cg", fast=True)
        assert runner_mod.workload_params("cg", fast=False) == {}

    def test_result_metrics_finite(self):
        result = run_e1(fast=True, workloads=("stream",))
        assert all(math.isfinite(v) for v in result.metrics.values())
