"""Data-manager edge cases: degenerate DRAM, fragmentation, huge objects,
empty/one-task graphs, and the pathological devices."""

from repro.baselines import NVMOnlyPolicy
from repro.core.manager import DataManagerPolicy, ManagerConfig
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, reram
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import KIB, MIB


def hotloop(obj_mib=8, n=10, extra_objs=()):
    g = TaskGraph()
    hot = DataObject(name="hot", size_bytes=int(obj_mib * MIB))
    for i in range(n):
        accesses = {hot: update_footprint(hot.size_bytes, hot.size_bytes, reuse=2.0)}
        for o in extra_objs:
            accesses[o] = read_footprint(o.size_bytes / 8)
        g.add(
            Task(
                name=f"t{i}", type_name="t", accesses=accesses,
                compute_time=1e-4, iteration=i,
            )
        )
    return g, hot


def run(graph, nvm, dram_cap, workers=2):
    hms = HeterogeneousMemorySystem(dram(dram_cap), nvm)
    pol = DataManagerPolicy()
    tr = Executor(hms, ExecutorConfig(n_workers=workers)).run(graph, pol)
    tr.validate()
    return tr, pol, hms


class TestDegenerateDRAM:
    def test_dram_smaller_than_every_object(self, nvm_bw):
        """Nothing fits: the manager must degrade to NVM-only gracefully."""
        g, hot = hotloop(obj_mib=8)
        tr, pol, hms = run(g, nvm_bw, dram_cap=1 * MIB)
        base = Executor(
            HeterogeneousMemorySystem(dram(1 * MIB), nvm_bw), ExecutorConfig(n_workers=2)
        ).run(g, NVMOnlyPolicy())
        assert tr.migration_count == 0
        assert tr.makespan <= base.makespan * 1.05

    def test_tiny_dram_still_sane(self, nvm_bw):
        g, hot = hotloop(obj_mib=8)
        tr, pol, hms = run(g, nvm_bw, dram_cap=64 * KIB)
        assert tr.makespan > 0

    def test_dram_exactly_one_object(self, nvm_bw):
        extra = [DataObject(name=f"x{i}", size_bytes=int(8 * MIB)) for i in range(3)]
        g, hot = hotloop(obj_mib=8, extra_objs=extra)
        tr, pol, hms = run(g, nvm_bw, dram_cap=int(9 * MIB))
        # the single most valuable object (hot) should win the slot
        assert hms.in_dram(hot)


class TestDegenerateGraphs:
    def test_empty_graph(self, nvm_bw):
        tr, pol, hms = run(TaskGraph(), nvm_bw, dram_cap=16 * MIB)
        assert tr.makespan == 0.0
        assert pol.stats["replans"] == 0

    def test_single_task(self, nvm_bw):
        g = TaskGraph()
        o = DataObject(name="o", size_bytes=int(MIB))
        g.add(Task(name="t", type_name="t", accesses={o: read_footprint(MIB)}))
        tr, pol, hms = run(g, nvm_bw, dram_cap=16 * MIB)
        assert len(tr.tasks) == 1
        # one instance < profile_instances: never modeled, never migrated
        assert tr.migration_count == 0

    def test_every_task_unique_type(self, nvm_bw):
        """No type repeats: the manager can never finish profiling any
        type and must simply not get in the way."""
        g = TaskGraph()
        o = DataObject(name="o", size_bytes=int(8 * MIB))
        for i in range(10):
            g.add(
                Task(
                    name=f"t{i}",
                    type_name=f"unique{i}",
                    accesses={o: update_footprint(8 * MIB, 8 * MIB)},
                    compute_time=1e-4,
                )
            )
        tr, pol, hms = run(g, nvm_bw, dram_cap=16 * MIB)
        base = Executor(
            HeterogeneousMemorySystem(dram(16 * MIB), nvm_bw),
            ExecutorConfig(n_workers=2),
        ).run(g, NVMOnlyPolicy())
        assert tr.makespan <= base.makespan * 1.05

    def test_single_instance_profiling_config(self, nvm_bw):
        g, hot = hotloop()
        hms = HeterogeneousMemorySystem(dram(16 * MIB), nvm_bw)
        pol = DataManagerPolicy(ManagerConfig(profile_instances=1))
        tr = Executor(hms, ExecutorConfig(n_workers=2)).run(g, pol)
        tr.validate()
        assert pol.stats["profiled_tasks"] >= 1


class TestPathologicalDevices:
    def test_never_much_worse_than_nvm_only_on_reram(self):
        """Storage-class write bandwidth: the volume guards must keep the
        manager at or near the do-nothing baseline."""
        nvm = reram()
        g1, _ = hotloop(obj_mib=4, n=16)
        g2, _ = hotloop(obj_mib=4, n=16)
        hms = HeterogeneousMemorySystem(dram(16 * MIB), nvm)
        tah = Executor(hms, ExecutorConfig(n_workers=2)).run(g1, DataManagerPolicy())
        hms2 = HeterogeneousMemorySystem(dram(16 * MIB), nvm)
        base = Executor(hms2, ExecutorConfig(n_workers=2)).run(g2, NVMOnlyPolicy())
        assert tah.makespan <= base.makespan * 1.10

    def test_wide_graph_many_objects(self, nvm_bw):
        """Hundreds of small objects: planning stays correct and bounded."""
        g = TaskGraph()
        objs = [DataObject(name=f"o{i}", size_bytes=int(256 * KIB)) for i in range(200)]
        for it in range(3):
            for i, o in enumerate(objs):
                g.add(
                    Task(
                        name=f"t{it},{i}",
                        type_name="t",
                        accesses={o: update_footprint(o.size_bytes, o.size_bytes, reuse=4.0)},
                        compute_time=1e-5,
                        iteration=it,
                    )
                )
        tr, pol, hms = run(g, nvm_bw, dram_cap=16 * MIB, workers=4)
        assert hms.dram_used_bytes() <= 16 * MIB
        assert tr.overhead_fraction() < 0.12
