"""Extension features: energy/endurance accounting, trace export,
clean-eviction dirty tracking, and the oracle-static baseline."""

import json

import pytest

from repro.baselines import DRAMOnlyPolicy, NVMOnlyPolicy, OracleStaticPolicy
from repro.memory.energy import EnergyReport, _access_energy, _static_energy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.tasking.tracefmt import ascii_gantt, to_chrome_trace
from repro.util.units import MIB

from tests.helpers import dram_for, make_fork_join_graph, run_graph


class TestEnergyModel:
    def test_nvm_writes_most_expensive(self):
        n = nvm_bandwidth_scaled(0.5)
        d = dram()
        assert _access_energy(n, 0, 1000) > _access_energy(n, 1000, 0)
        assert _access_energy(n, 0, 1000) > _access_energy(d, 0, 1000)

    def test_static_energy_scales_with_capacity_and_time(self):
        small, big = dram(256 * MIB), dram(1024 * MIB)
        assert _static_energy(big, 1.0) == pytest.approx(4 * _static_energy(small, 1.0))
        assert _static_energy(small, 2.0) == pytest.approx(2 * _static_energy(small, 1.0))

    def test_nvm_static_near_zero(self):
        d, n = dram(256 * MIB), nvm_bandwidth_scaled(0.5).scaled(capacity_bytes=256 * MIB)
        assert _static_energy(n, 1.0) < 0.1 * _static_energy(d, 1.0)


class TestEnergyReport:
    def _run(self, policy, nvm):
        g = make_fork_join_graph(width=4, obj_mib=8.0)
        d = dram_for(g) if isinstance(policy, DRAMOnlyPolicy) else dram()
        tr = run_graph(g, d, nvm, policy)
        return tr, d, nvm

    def test_dram_only_has_no_nvm_writes(self, nvm_bw):
        tr, d, n = self._run(DRAMOnlyPolicy(), nvm_bw)
        rep = EnergyReport.from_trace(tr, d, n)
        assert rep.nvm_bytes_written == 0.0
        assert rep.dynamic_j > 0 and rep.static_j > 0

    def test_nvm_only_writes_land_on_nvm(self, nvm_bw):
        tr, d, n = self._run(NVMOnlyPolicy(), nvm_bw)
        rep = EnergyReport.from_trace(tr, d, n)
        assert rep.nvm_bytes_written > 0

    def test_migration_energy_counted(self, nvm_bw):
        from tests.test_tasking_executor import _MigratingPolicy

        g = TaskGraph()
        hot = DataObject(name="hot", size_bytes=int(16 * MIB))
        for i in range(6):
            g.add(
                Task(
                    name=f"t{i}",
                    type_name="t",
                    accesses={hot: update_footprint(hot.size_bytes, hot.size_bytes)},
                    compute_time=1e-4,
                )
            )
        pol = _MigratingPolicy(hot, "t0")
        tr = run_graph(g, dram(), nvm_bw, pol, workers=1)
        rep = EnergyReport.from_trace(tr, dram(), nvm_bw)
        assert rep.migration_j > 0

    def test_summary_keys(self, nvm_bw):
        tr, d, n = self._run(NVMOnlyPolicy(), nvm_bw)
        s = EnergyReport.from_trace(tr, d, n).summary()
        assert set(s) == {
            "dynamic_j",
            "static_j",
            "migration_j",
            "total_j",
            "nvm_mib_written",
        }
        assert s["total_j"] == pytest.approx(
            s["dynamic_j"] + s["static_j"] + s["migration_j"]
        )


class TestDirtyTracking:
    def test_writer_marks_dirty(self, nvm_bw):
        g = TaskGraph()
        obj = DataObject(name="o", size_bytes=int(4 * MIB))
        g.add(
            Task(
                name="w",
                type_name="w",
                accesses={obj: update_footprint(obj.size_bytes, obj.size_bytes)},
            )
        )
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        Executor(hms, ExecutorConfig()).run(g, DRAMOnlyPolicy())
        # object lives in NVM? no: DRAMOnly placed it in dram and the task wrote it
        assert hms.in_dram(obj) and hms.is_dirty(obj)

    def test_reader_stays_clean(self, nvm_bw):
        g = TaskGraph()
        obj = DataObject(name="o", size_bytes=int(4 * MIB))
        g.add(
            Task(
                name="r", type_name="r", accesses={obj: read_footprint(obj.size_bytes)}
            )
        )
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        Executor(hms, ExecutorConfig()).run(g, DRAMOnlyPolicy())
        assert not hms.is_dirty(obj)

    def test_clean_eviction_is_free(self, nvm_bw):
        """Demoting a clean DRAM resident must not schedule a copy."""
        from repro.baselines.policies import BasePolicy

        g = TaskGraph()
        obj = DataObject(name="o", size_bytes=int(8 * MIB))
        for i in range(4):
            g.add(
                Task(
                    name=f"r{i}",
                    type_name="r",
                    accesses={obj: read_footprint(obj.size_bytes)},
                )
            )

        class EvictAfterFirst(BasePolicy):
            name = "evict"

            def on_run_start(self, ctx):
                ctx.place_initial(obj, ctx.dram)

            def after_task(self, task, record, ctx):
                if task.name == "r0":
                    assert ctx.request_migration(obj, ctx.nvm, record.finish) is None
                return 0.0

        tr = run_graph(g, dram(), nvm_bw, EvictAfterFirst(), workers=1)
        assert tr.migration_count == 0  # the demotion was a remap

    def test_dirty_eviction_costs_a_copy(self, nvm_bw):
        from repro.baselines.policies import BasePolicy

        g = TaskGraph()
        obj = DataObject(name="o", size_bytes=int(8 * MIB))
        for i in range(3):
            g.add(
                Task(
                    name=f"w{i}",
                    type_name="w",
                    accesses={obj: update_footprint(obj.size_bytes, obj.size_bytes)},
                )
            )

        class EvictAfterFirst(BasePolicy):
            name = "evict"

            def on_run_start(self, ctx):
                ctx.place_initial(obj, ctx.dram)

            def after_task(self, task, record, ctx):
                if task.name == "w0":
                    assert ctx.request_migration(obj, ctx.nvm, record.finish) is not None
                return 0.0

        tr = run_graph(g, dram(), nvm_bw, EvictAfterFirst(), workers=1)
        assert tr.migration_count == 1


class TestTraceExport:
    def _trace(self, nvm):
        g = make_fork_join_graph(width=4)
        return run_graph(g, dram_for(g), nvm, DRAMOnlyPolicy(), workers=2)

    def test_chrome_trace_valid_json(self, nvm_bw):
        tr = self._trace(nvm_bw)
        doc = json.loads(to_chrome_trace(tr))
        events = doc["traceEvents"]
        tasks = [e for e in events if e.get("cat") == "task"]
        assert len(tasks) == len(tr.records)
        assert all(e["ph"] in ("X", "M") for e in events)
        assert all(e["dur"] >= 0 for e in tasks)

    def test_chrome_trace_has_worker_names(self, nvm_bw):
        doc = json.loads(to_chrome_trace(self._trace(nvm_bw)))
        names = [
            e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "thread_name"
        ]
        assert "worker 0" in names
        assert "helper thread (copies)" in names

    def test_ascii_gantt_shape(self, nvm_bw):
        tr = self._trace(nvm_bw)
        art = ascii_gantt(tr, width=60)
        lines = art.splitlines()
        assert len([l for l in lines if l.startswith("worker")]) == tr.n_workers
        assert "#" in art

    def test_ascii_gantt_empty(self):
        from repro.tasking.trace import ExecutionTrace

        assert ascii_gantt(ExecutionTrace()) == "(empty trace)"


class TestOracleStatic:
    def test_oracle_close_to_best_static_and_beats_nvm(self, nvm_bw):
        from repro.baselines import XMemPolicy

        g = make_fork_join_graph(width=6, obj_mib=16.0)
        g2 = make_fork_join_graph(width=6, obj_mib=16.0)
        g3 = make_fork_join_graph(width=6, obj_mib=16.0)
        oracle = run_graph(g, dram(int(32 * MIB)), nvm_bw, OracleStaticPolicy())
        xmem = run_graph(g2, dram(int(32 * MIB)), nvm_bw, XMemPolicy())
        nvm_only = run_graph(g3, dram(int(32 * MIB)), nvm_bw, NVMOnlyPolicy())
        # additive per-object benefits ignore scheduling, so the oracle can
        # deviate slightly from the best realizable static placement
        assert oracle.makespan <= xmem.makespan * 1.10
        assert oracle.makespan < nvm_only.makespan

    def test_oracle_never_migrates(self, nvm_bw):
        g = make_fork_join_graph(width=4)
        tr = run_graph(g, dram(), nvm_bw, OracleStaticPolicy())
        assert tr.migration_count == 0

    def test_oracle_respects_capacity(self, nvm_bw):
        g = make_fork_join_graph(width=8, obj_mib=8.0)
        hms = HeterogeneousMemorySystem(dram(int(16 * MIB)), nvm_bw)
        Executor(hms, ExecutorConfig()).run(g, OracleStaticPolicy())
        assert hms.dram_used_bytes() <= 16 * MIB
