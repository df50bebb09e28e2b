"""Integration: the policy matrix over the workload roster, determinism,
and the E2/E4/E6/E9 experiments' key shapes."""

import pytest

from repro.experiments.e2_object_sensitivity import run as run_e2
from repro.experiments.e4_breakdown import run as run_e4
from repro.experiments.e6_scaling import run as run_e6
from repro.experiments.e9_ablations import run as run_e9
from repro.experiments.runner import execute_spec
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled

pytestmark = pytest.mark.integration

POLICY_MATRIX = ("nvm-only", "xmem", "hw-cache", "tahoe")
ROSTER = ("cg", "heat", "health", "sparselu")


class TestPolicyMatrix:
    @pytest.mark.parametrize("workload", ROSTER)
    @pytest.mark.parametrize("policy", POLICY_MATRIX)
    def test_runs_clean(self, workload, policy):
        tr = execute_spec(
            RunSpec(workload=workload, policy=policy, nvm=nvm_bandwidth_scaled(0.5))
        )
        tr.validate()
        assert tr.makespan > 0

    def test_determinism_across_processes_worth(self):
        spec = RunSpec(workload="heat", policy="tahoe", nvm=nvm_bandwidth_scaled(0.5))
        a = execute_spec(spec)
        b = execute_spec(spec)
        assert a.makespan == pytest.approx(b.makespan, rel=1e-12)
        assert a.migration_count == b.migration_count


class TestE2Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e2(fast=True)

    def test_matrix_chunks_help_bandwidth_only(self, result):
        m = result.metrics
        assert m["cg/a/bw"] < m["cg/none/bw"] - 0.03
        assert m["cg/a/lat"] == pytest.approx(m["cg/none/lat"], abs=0.05)

    def test_colidx_helps_latency(self, result):
        m = result.metrics
        assert m["cg/colidx/lat"] < m["cg/none/lat"] - 0.1

    def test_villages_help_latency_only(self, result):
        m = result.metrics
        assert m["health/villages/lat"] < m["health/none/lat"] - 0.2


class TestE4Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e4(fast=True, workloads=("cg", "heat", "fft"))

    def test_full_stack_beats_nvm(self, result):
        m = result.metrics
        for wl in ("cg", "heat"):
            assert m[f"{wl}/+initial"] < m[f"{wl}/nvm"]

    def test_partitioning_helps_fft(self, result):
        m = result.metrics
        assert m["fft/+partition"] <= m["fft/+local"] + 0.01

    def test_cumulative_stages_never_catastrophic(self, result):
        for key, v in result.metrics.items():
            assert v < 3.0, key


class TestE6Shapes:
    def test_manager_tracks_dram_at_every_scale(self):
        result = run_e6(fast=True, workloads=("cg",))
        m = result.metrics
        for workers in (4, 8, 16):
            assert m[f"cg/w{workers}/tahoe"] <= m[f"cg/w{workers}/nvm"] + 0.03

    def test_strong_scaling_reduces_makespan(self):
        result = run_e6(fast=True, workloads=("cg",))
        m = result.metrics
        assert m["cg/w16/dram_makespan"] < m["cg/w4/dram_makespan"]


class TestE9Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e9(fast=True)

    def test_denser_sampling_costs_more_overhead(self, result):
        m = result.metrics
        assert m["interval/100/overhead"] > m["interval/10000/overhead"]

    def test_dp_not_worse_than_greedy(self, result):
        m = result.metrics
        assert m["solver/dp/health"] <= m["solver/greedy/health"] + 0.05

    def test_adaptation_no_worse_under_shift(self, result):
        m = result.metrics
        assert m["adaptation/on"] <= m["adaptation/off"] + 0.05

    def test_rawcounters_config_runs(self, result):
        assert "counters/ld/st only" in result.metrics
