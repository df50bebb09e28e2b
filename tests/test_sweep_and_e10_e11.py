"""Sweep harness and the E10/E11 extension experiments."""

import pytest

from repro.experiments.e10_energy_oracle import run as run_e10
from repro.experiments.e11_scheduler import run as run_e11
from repro.experiments.sweep import pivot, sweep
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.units import MIB

pytestmark = pytest.mark.integration


class TestSweep:
    def test_cartesian_product_and_records(self):
        recs = sweep(
            workload="heat",
            policy=["nvm-only", "xmem"],
            nvm=[nvm_bandwidth_scaled(0.5), nvm_bandwidth_scaled(0.25)],
            dram_capacity=[128 * MIB, 256 * MIB],
        )
        assert len(recs) == 1 * 2 * 2 * 2
        for r in recs:
            assert r["makespan"] > 0
            assert r["policy"] in ("nvm-only", "xmem")
            assert r["nvm"] in ("nvm-bw-0.5", "nvm-bw-0.25")

    def test_sweep_shape_more_bandwidth_less_time(self):
        recs = sweep(
            workload="heat",
            policy="nvm-only",
            nvm=[nvm_bandwidth_scaled(0.5), nvm_bandwidth_scaled(0.125)],
        )
        by_nvm = {r["nvm"]: r["makespan"] for r in recs}
        assert by_nvm["nvm-bw-0.125"] > by_nvm["nvm-bw-0.5"]

    def test_pivot_arranges_cells(self):
        recs = sweep(
            workload="heat",
            policy=["nvm-only", "xmem"],
            nvm=nvm_bandwidth_scaled(0.5),
            dram_capacity=[128 * MIB, 256 * MIB],
        )
        table = pivot(recs, rows="dram_capacity", cols="policy")
        assert len(table.rows) == 2
        assert table.columns[1:] == ["nvm-only", "xmem"]
        d = [dict(zip(table.columns, row)) for row in table.rows]
        assert all(isinstance(row["xmem"], float) for row in d)

    def test_pivot_missing_cell_dash(self):
        recs = sweep(workload="heat", policy="nvm-only", nvm=nvm_bandwidth_scaled(0.5))
        table = pivot(recs, rows="workload", cols="policy")
        assert dict(zip(table.columns, table.rows[0]))["nvm-only"] > 0


class TestE10Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e10(fast=True, workloads=("cg", "heat"))

    def test_tahoe_near_oracle(self, result):
        for wl in ("cg", "heat"):
            assert result.metrics[f"{wl}/oracle_fraction"] > 0.85

    def test_oracle_not_worse_than_nvm_only(self, result):
        for wl in ("cg", "heat"):
            assert (
                result.metrics[f"{wl}/oracle-static"]
                <= result.metrics[f"{wl}/nvm-only"] + 0.02
            )

    def test_energy_tables_rendered(self, result):
        text = result.render()
        assert "NVM MiB written" in text and "total J" in text


class TestE11Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e11(fast=True, workloads=("cg", "sparselu"))

    def test_critical_path_never_hurts(self, result):
        m = result.metrics
        for wl in ("cg", "sparselu"):
            assert m[f"{wl}/critical-path"] <= m[f"{wl}/fifo"] + 0.02

    def test_memory_aware_bounded_regression(self, result):
        # Memory-aware ordering scores once at enable time; on chain-heavy
        # DAGs deferring a cold-data task can delay its dependents, so it
        # is bounded-worse than FIFO rather than uniformly better.
        m = result.metrics
        for wl in ("cg", "sparselu"):
            assert m[f"{wl}/memory-aware"] <= m[f"{wl}/fifo"] * 1.15

    def test_scheduling_alone_recovers_nothing(self, result):
        m = result.metrics
        for wl in ("cg", "sparselu"):
            assert m[f"{wl}/memaware-nvmonly"] >= m[f"{wl}/memory-aware"] - 0.02
