"""Executor edge cases: configs, Memory-Mode timing, contention effects,
ready-time clamping, and scheduler/policy cross-products."""

import pytest

from repro.baselines import DRAMOnlyPolicy, HWCacheMode, NVMOnlyPolicy
from repro.core.manager import DataManagerPolicy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.scheduler import (
    CriticalPathPolicy,
    FIFOPolicy,
    MemoryAwarePolicy,
)
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.helpers import dram_for, make_chain_graph, make_fork_join_graph, run_graph


class TestTimeTravelRegression:
    def test_chain_with_many_workers_stays_serialized(self, nvm_bw):
        """Regression: an idle worker draining a future completion must not
        let another worker dispatch the enabled task in the past."""
        g = make_chain_graph(n_tasks=12)
        for workers in (2, 4, 8):
            tr = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy(), workers=workers)
            tr.validate()
            recs = sorted(tr.records, key=lambda r: r.start)
            for a, b in zip(recs, recs[1:]):
                assert b.start >= a.finish - 1e-12

    def test_diamond_joins_wait_for_slowest(self, nvm_bw):
        g = TaskGraph()
        a = DataObject(name="a", size_bytes=int(MIB))
        b = DataObject(name="b", size_bytes=int(32 * MIB))
        src = g.add(Task(name="src", type_name="s",
                         accesses={a: update_footprint(MIB, MIB),
                                   b: update_footprint(32 * MIB, 32 * MIB)}))
        fast = g.add(Task(name="fast", type_name="f",
                          accesses={a: read_footprint(MIB)}, compute_time=1e-5))
        slow = g.add(Task(name="slow", type_name="g",
                          accesses={b: read_footprint(32 * MIB)}, compute_time=5e-3))
        sink = g.add(Task(name="sink", type_name="k",
                          accesses={a: update_footprint(MIB, MIB),
                                    b: update_footprint(32 * MIB, 32 * MIB)}))
        tr = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy(), workers=4)
        rec = {r.task.name: r for r in tr.records}
        assert rec["sink"].start >= rec["slow"].finish - 1e-12
        assert rec["sink"].start >= rec["fast"].finish - 1e-12


class TestMemoryModeTiming:
    def test_placement_irrelevant_under_dram_cache(self, nvm_bw):
        g1 = make_fork_join_graph(width=4, obj_mib=16.0)
        cfg = HWCacheMode.configure(ExecutorConfig(n_workers=4), int(64 * MIB))
        t_nvm = Executor(
            HeterogeneousMemorySystem(dram(int(64 * MIB)), nvm_bw), cfg
        ).run(g1, NVMOnlyPolicy())
        g2 = make_fork_join_graph(width=4, obj_mib=16.0)
        t_static = Executor(
            HeterogeneousMemorySystem(dram(int(64 * MIB)), nvm_bw), cfg
        ).run(g2, HWCacheMode())
        assert t_nvm.makespan == pytest.approx(t_static.makespan, rel=1e-9)

    def test_bigger_cache_is_faster(self, nvm_bw):
        def run_with(cap_mib):
            g = make_fork_join_graph(width=4, obj_mib=32.0)
            cfg = HWCacheMode.configure(
                ExecutorConfig(n_workers=4), int(cap_mib * MIB)
            )
            hms = HeterogeneousMemorySystem(dram(int(cap_mib * MIB)), nvm_bw)
            return Executor(hms, cfg).run(g, HWCacheMode()).makespan

        assert run_with(1024) < run_with(8)


class TestContentionEffects:
    def test_contended_machine_is_slower(self, nvm_bw):
        # 16 workers stream 16 tasks at once, past the device's saturation
        # point, so each task's bandwidth term is inflated; one worker runs
        # them uncontended.
        def mean_memory_time(n_workers):
            g = make_fork_join_graph(width=16, obj_mib=16.0)
            tr = Executor(
                HeterogeneousMemorySystem(dram_for(g), nvm_bw),
                ExecutorConfig(n_workers=n_workers),
            ).run(g, DRAMOnlyPolicy())
            return tr.total_memory_time / len(tr.records)

        assert mean_memory_time(16) > mean_memory_time(1) * 1.3


class TestSchedulerPolicyMatrix:
    @pytest.mark.parametrize(
        "sched", [FIFOPolicy, CriticalPathPolicy, MemoryAwarePolicy]
    )
    @pytest.mark.parametrize("policy_cls", [NVMOnlyPolicy, DataManagerPolicy])
    def test_every_combination_completes(self, sched, policy_cls, nvm_bw):
        g = make_fork_join_graph(width=8, obj_mib=4.0)
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        tr = Executor(hms, ExecutorConfig(n_workers=4, scheduler=sched())).run(
            g, policy_cls()
        )
        tr.validate()
        assert len(tr.records) == len(g.tasks)


class TestDeterministicDrainOrder:
    def _layered(self, width):
        """`width` identical roots fan one-to-one into `width` children, so
        with `width` workers every root finishes at exactly the same time
        and all children become ready in one drain."""
        g = TaskGraph()
        obj = DataObject(name="shared", size_bytes=int(4 * MIB))
        roots = []
        for i in range(width):
            t = Task(
                name=f"r{i}",
                type_name="root",
                accesses={obj: read_footprint(MIB)},
                compute_time=1e-4,
            )
            g.add(t)
            roots.append(t)
        for i, r in enumerate(roots):
            c = g.add(
                Task(
                    name=f"c{i}",
                    type_name="child",
                    accesses={obj: read_footprint(MIB)},
                    compute_time=1e-4,
                )
            )
            g.add_edge(r, c)
        return g

    def test_simultaneous_completions_enable_in_tid_order(self, nvm_bw):
        g = self._layered(width=4)
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        tr = Executor(hms, ExecutorConfig(n_workers=4)).run(g, NVMOnlyPolicy())
        roots = [r for r in tr.records if r.task.type_name == "root"]
        children = [r for r in tr.records if r.task.type_name == "child"]
        # all roots really do finish simultaneously — the drain is one batch
        assert len({r.finish for r in roots}) == 1
        # and the batch is drained deterministically by (t_done, tid)
        tids = [r.task.tid for r in children]
        assert tids == sorted(tids)

    def test_drain_order_is_reproducible(self, nvm_bw):
        def one_run():
            g = self._layered(width=6)
            hms = HeterogeneousMemorySystem(dram(), nvm_bw)
            tr = Executor(hms, ExecutorConfig(n_workers=6)).run(g, NVMOnlyPolicy())
            return [(r.task.name, r.worker, r.start, r.finish) for r in tr.records]

        assert one_run() == one_run()


class TestSchedulerActuallyEngages:
    """Regression for the seed's ``scheduler or FIFOPolicy()`` truthiness
    bug: a freshly constructed (empty) policy is falsy, so every scheduler
    was silently replaced by FIFO and the knob never did anything.  These
    tests fail if that ever regresses, by asserting an order only the
    requested policy can produce."""

    def _independent(self, n):
        """``n`` independent tasks, each longer than the one spawned
        before it: FIFO runs them in spawn order, the critical-path
        policy longest first."""
        g = TaskGraph()
        obj = DataObject(name="o", size_bytes=int(4 * MIB))
        for i in range(n):
            g.add(
                Task(
                    name=f"t{i}",
                    type_name="w",
                    accesses={obj: read_footprint(MIB)},
                    compute_time=(i + 1) * 1e-4,
                )
            )
        return g

    def test_critical_path_reverses_fifo_order_on_one_worker(self, nvm_bw):
        names = {}
        for sched in (FIFOPolicy(), CriticalPathPolicy()):
            g = self._independent(5)
            hms = HeterogeneousMemorySystem(dram(), nvm_bw)
            tr = Executor(hms, ExecutorConfig(n_workers=1, scheduler=sched)).run(
                g, NVMOnlyPolicy()
            )
            names[type(sched).__name__] = [r.task.name for r in tr.records]
        assert names["FIFOPolicy"] == ["t0", "t1", "t2", "t3", "t4"]
        assert names["CriticalPathPolicy"] == ["t4", "t3", "t2", "t1", "t0"]

    def test_scheduler_sees_every_task(self, nvm_bw):
        class Spy(FIFOPolicy):
            pushes = 0

            def push(self, task):
                Spy.pushes += 1
                super().push(task)

        g = make_fork_join_graph(width=8, obj_mib=4.0)
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        Executor(hms, ExecutorConfig(n_workers=4, scheduler=Spy())).run(
            g, NVMOnlyPolicy()
        )
        assert Spy.pushes == len(g.tasks)

    def test_string_scheduler_resolves_in_config(self, nvm_bw):
        g = self._independent(5)
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        ex = Executor(hms, ExecutorConfig(n_workers=1, scheduler="critical-path"))
        assert isinstance(ex.scheduler, CriticalPathPolicy)
        tr = ex.run(g, NVMOnlyPolicy())
        assert [r.task.name for r in tr.records] == ["t4", "t3", "t2", "t1", "t0"]


class TestSamplingConfigPlumbs:
    def test_interval_reaches_profiler(self, nvm_bw):
        g = make_chain_graph(n_tasks=8, obj_mib=16)
        pol_dense = DataManagerPolicy()
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        dense = Executor(
            hms, ExecutorConfig(n_workers=2, sampling_interval_cycles=100)
        ).run(g, pol_dense)
        g2 = make_chain_graph(n_tasks=8, obj_mib=16)
        pol_sparse = DataManagerPolicy()
        hms2 = HeterogeneousMemorySystem(dram(), nvm_bw)
        sparse = Executor(
            hms2, ExecutorConfig(n_workers=2, sampling_interval_cycles=10_000)
        ).run(g2, pol_sparse)
        assert dense.total_overhead_time > sparse.total_overhead_time
