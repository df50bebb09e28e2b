"""Baseline placement policies."""

from repro.baselines import (
    DRAMOnlyPolicy,
    HWCacheMode,
    NVMOnlyPolicy,
    StaticPlacementPolicy,
    XMemPolicy,
)
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import read_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.helpers import dram_for, make_fork_join_graph, run_graph


def hot_cold_graph():
    g = TaskGraph()
    hot = DataObject(name="hot", size_bytes=int(4 * MIB))
    cold = DataObject(name="cold", size_bytes=int(4 * MIB))
    for i in range(6):
        g.add(
            Task(
                name=f"t{i}",
                type_name="t",
                accesses={
                    hot: read_footprint(hot.size_bytes, reuse=8.0),
                    cold: read_footprint(cold.size_bytes / 8),
                },
                compute_time=1e-4,
            )
        )
    return g, hot, cold


class TestTrivialPolicies:
    def test_nvm_only_keeps_everything_on_nvm(self, nvm_bw):
        g, hot, cold = hot_cold_graph()
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        Executor(hms, ExecutorConfig()).run(g, NVMOnlyPolicy())
        assert not hms.in_dram(hot) and not hms.in_dram(cold)

    def test_dram_only_places_everything(self, nvm_bw):
        g, hot, cold = hot_cold_graph()
        hms = HeterogeneousMemorySystem(dram_for(g), nvm_bw)
        Executor(hms, ExecutorConfig()).run(g, DRAMOnlyPolicy())
        assert hms.in_dram(hot) and hms.in_dram(cold)

    def test_static_placement_pins_requested_set(self, nvm_bw):
        g, hot, cold = hot_cold_graph()
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        Executor(hms, ExecutorConfig()).run(g, StaticPlacementPolicy({hot.uid}))
        assert hms.in_dram(hot) and not hms.in_dram(cold)



class TestXMem:
    def test_places_hottest_density_first(self, nvm_bw):
        g, hot, cold = hot_cold_graph()
        hms = HeterogeneousMemorySystem(dram(int(5 * MIB)), nvm_bw)
        Executor(hms, ExecutorConfig()).run(g, XMemPolicy())
        assert hms.in_dram(hot)
        assert not hms.in_dram(cold)

    def test_never_migrates_at_runtime(self, nvm_bw):
        g, *_ = hot_cold_graph()
        tr = run_graph(g, dram(), nvm_bw, XMemPolicy())
        assert tr.migration_count == 0

    def test_beats_nvm_only_on_skewed_program(self, nvm_bw):
        g, *_ = hot_cold_graph()
        base = run_graph(g, dram(int(5 * MIB)), nvm_bw, NVMOnlyPolicy())
        x = run_graph(g, dram(int(5 * MIB)), nvm_bw, XMemPolicy())
        assert x.makespan < base.makespan


class TestHWCache:
    def test_configure_sets_model(self):
        cfg = HWCacheMode.configure(ExecutorConfig(), int(256 * MIB))
        assert cfg.dram_cache is not None
        assert cfg.dram_cache.dram_capacity_bytes == 256 * MIB

    def test_small_working_set_near_dram(self, nvm_bw):
        g = make_fork_join_graph(width=4, obj_mib=1.0)
        cfg = HWCacheMode.configure(ExecutorConfig(n_workers=4), int(256 * MIB))
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        cached = Executor(hms, cfg).run(g, HWCacheMode())
        ref = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy())
        assert cached.makespan <= ref.makespan * 1.35

    def test_large_working_set_near_nvm(self, nvm_bw):
        g = make_fork_join_graph(width=4, obj_mib=64.0)
        cfg = HWCacheMode.configure(ExecutorConfig(n_workers=4), int(16 * MIB))
        hms = HeterogeneousMemorySystem(dram(int(16 * MIB)), nvm_bw)
        cached = Executor(hms, cfg).run(g, HWCacheMode())
        nvm_run = run_graph(g, dram(int(16 * MIB)), nvm_bw, NVMOnlyPolicy())
        dram_run = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy())
        assert cached.makespan > dram_run.makespan * 1.2
        assert cached.makespan <= nvm_run.makespan * 1.2
