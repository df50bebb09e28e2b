"""Seed sweeps through ``sweep(..., seed=[...])`` and the memory-aware scheduler."""

import statistics

import pytest

from repro.core.manager import DataManagerPolicy
from repro.experiments.sweep import sweep
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.scheduler import MemoryAwarePolicy
from repro.workloads import build


def seed_makespans(policy, seeds=(1, 2, 3)):
    recs = sweep("heat", policy, nvm_bandwidth_scaled(0.5), seed=list(seeds))
    return [r["makespan"] for r in recs]


class TestSeedSweep:
    def test_seeds_change_manager_outcomes_slightly(self):
        values = seed_makespans("tahoe")
        assert len(values) == 3
        spread = (max(values) - min(values)) / min(values)
        assert spread < 0.2  # noise-robust, not noise-free

    def test_trivial_policy_is_seed_invariant(self):
        values = seed_makespans("nvm-only")
        assert max(values) == pytest.approx(min(values), rel=1e-12)

    def test_normalized_sweep_summary(self):
        (ref,) = seed_makespans("dram-only", seeds=(1,))
        normalized = [m / ref for m in seed_makespans("tahoe")]
        assert 1.0 <= statistics.fmean(normalized) <= 2.0


class TestMemoryAwareScheduler:
    def test_completes_and_validates(self):
        nvm = nvm_bandwidth_scaled(0.5)
        w = build("heat", grid=5, iterations=4)
        hms = HeterogeneousMemorySystem(dram(), nvm)
        tr = Executor(hms, ExecutorConfig(n_workers=4, scheduler=MemoryAwarePolicy())).run(
            w.graph, DataManagerPolicy()
        )
        tr.validate()
        assert len(tr.tasks) == len(w.graph)

    def test_prefers_dram_resident_ready_tasks(self):
        from repro.tasking.dataobj import DataObject
        from repro.tasking.footprints import read_footprint
        from repro.tasking.task import Task
        from repro.util.units import MIB

        hms = HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))
        hot = DataObject(name="hot", size_bytes=int(MIB))
        cold = DataObject(name="cold", size_bytes=int(MIB))
        hms.allocate(hot, hms.dram)
        hms.allocate(cold, hms.nvm)
        sched = MemoryAwarePolicy()
        sched.prepare(None)
        sched.bind(hms)
        t_cold = Task(name="c", type_name="c", accesses={cold: read_footprint(MIB)})
        t_hot = Task(name="h", type_name="h", accesses={hot: read_footprint(MIB)})
        sched.push(t_cold)
        sched.push(t_hot)
        assert sched.pop() is t_hot

    def test_no_worse_than_fifo_with_manager(self):
        nvm = nvm_bandwidth_scaled(0.5)

        def run(sched):
            w = build("cg", n_chunks=6, iterations=4)
            hms = HeterogeneousMemorySystem(dram(), nvm)
            return Executor(hms, ExecutorConfig(n_workers=8, scheduler=sched)).run(
                w.graph, DataManagerPolicy()
            ).makespan

        from repro.tasking.scheduler import FIFOPolicy

        assert run(MemoryAwarePolicy()) <= run(FIFOPolicy()) * 1.1
