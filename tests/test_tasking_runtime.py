"""User-facing TaskRuntime API."""

import pytest

from repro.baselines import DRAMOnlyPolicy, NVMOnlyPolicy
from repro.core.manager import DataManagerPolicy, ManagerConfig
from repro.memory.presets import nvm_bandwidth_scaled
from repro.tasking.footprints import read_footprint, update_footprint, write_footprint
from repro.tasking.runtime import TaskRuntime
from repro.util.units import MIB

from tests.helpers import predecessors


@pytest.fixture
def rt():
    return TaskRuntime(nvm=nvm_bandwidth_scaled(0.5))


class TestProgramConstruction:
    def test_data_registers_objects(self, rt):
        a = rt.data("a", int(4 * MIB), static_ref_count=100.0)
        assert a.size_bytes == 4 * MIB
        assert a.static_ref_count == 100.0

    def test_spawn_infers_dependences(self, rt):
        a = rt.data("a", int(MIB))
        t1 = rt.spawn("w", {a: write_footprint(a.size_bytes)})
        t2 = rt.spawn("r", {a: read_footprint(a.size_bytes)})
        assert predecessors(rt.graph, t2) == [t1]

    def test_spawn_type_name_defaults_to_name(self, rt):
        a = rt.data("a", int(MIB))
        t = rt.spawn("kernel", {a: read_footprint(a.size_bytes)})
        assert t.type_name == "kernel"


class TestExecution:
    def _program(self, rt, n=6):
        a = rt.data("a", int(8 * MIB))
        for i in range(n):
            rt.spawn(
                f"s{i}",
                {a: update_footprint(a.size_bytes, a.size_bytes)},
                compute_time=1e-4,
                type_name="s",
                iteration=i,
            )
        return a

    def test_run_returns_trace(self, rt):
        self._program(rt)
        tr = rt.run(NVMOnlyPolicy())
        tr.validate()
        assert tr.makespan > 0
        assert tr.meta["policy"] == "nvm-only"

    def test_dram_only_machine(self, rt):
        self._program(rt)
        big = rt.dram_only_machine()
        tr = big.run(DRAMOnlyPolicy())
        tr2 = rt.run(NVMOnlyPolicy())
        assert tr.makespan < tr2.makespan

    def test_run_with_data_manager(self, rt):
        self._program(rt, n=10)
        tr = rt.run(DataManagerPolicy())
        tr.validate()
        assert tr.makespan > 0

    def test_partitioning_applied_when_policy_asks(self):
        rt = TaskRuntime(nvm=nvm_bandwidth_scaled(0.5))
        big = rt.data("big", int(128 * MIB), partitionable=True)
        for i in range(4):
            rt.spawn(
                f"sweep{i}",
                {big: update_footprint(big.size_bytes, big.size_bytes)},
                compute_time=1e-4,
                type_name="sweep",
            )
        pol = DataManagerPolicy(ManagerConfig(partition_max_bytes=int(32 * MIB)))
        tr = rt.run(pol)
        tr.validate()
        # Tasks now touch chunks, not the monolithic object.
        names = {o.name for t in tr.tasks for o in t.accesses}
        assert any("[" in n for n in names)
