"""Event-driven executor: scheduling, timing, stalls, migrations."""

import pytest

from repro.baselines.policies import BasePolicy, DRAMOnlyPolicy, NVMOnlyPolicy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram
from repro.metrics import Telemetry, TelemetryConfig
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import read_footprint, update_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.scheduler import CriticalPathPolicy, FIFOPolicy
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.helpers import (
    critical_path,
    dram_for,
    make_chain_graph,
    make_fork_join_graph,
    rows,
    run_graph,
)


class TestBasicExecution:
    def test_chain_is_serialized(self, nvm_bw):
        g = make_chain_graph(n_tasks=5)
        tr = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy(), workers=4)
        tr.validate()
        recs = sorted(rows(tr), key=lambda r: r.start)
        for a, b in zip(recs, recs[1:]):
            assert b.start >= a.finish - 1e-12

    def test_fork_join_parallelizes(self, nvm_bw):
        g = make_fork_join_graph(width=8)
        serial = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy(), workers=1)
        parallel = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy(), workers=8)
        assert parallel.makespan < serial.makespan / 2

    def test_makespan_at_least_critical_path_compute(self, nvm_bw):
        g = make_fork_join_graph(width=4)
        tr = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy(), workers=8)
        cp, _ = critical_path(g, lambda t: t.compute_time)
        assert tr.makespan >= cp * 0.74  # within intra-task overlap factor

    def test_all_tasks_run_exactly_once(self, nvm_bw):
        g = make_fork_join_graph(width=6)
        tr = run_graph(g, dram_for(g), nvm_bw, NVMOnlyPolicy())
        assert len(tr.tasks) == len(g.tasks)
        assert len({t.tid for t in tr.tasks}) == len(g.tasks)

    def test_placement_affects_timing(self, nvm_bw):
        g = make_chain_graph(n_tasks=4, obj_mib=32)
        on_dram = run_graph(g, dram_for(g), nvm_bw, DRAMOnlyPolicy())
        on_nvm = run_graph(g, dram_for(g), nvm_bw, NVMOnlyPolicy())
        assert on_nvm.makespan > 1.5 * on_dram.makespan

    def test_empty_graph(self, nvm_bw):
        tr = run_graph(TaskGraph(), dram(), nvm_bw, NVMOnlyPolicy())
        assert tr.makespan == 0.0 and tr.tasks == []

    def test_deterministic_across_runs(self, nvm_bw):
        g = make_fork_join_graph(width=8)
        t1 = run_graph(g, dram_for(g), nvm_bw, NVMOnlyPolicy())
        t2 = run_graph(g, dram_for(g), nvm_bw, NVMOnlyPolicy())
        assert t1.makespan == t2.makespan
        assert [t.tid for t in t1.tasks] == [t.tid for t in t2.tasks]


class TestSchedulers:
    @pytest.mark.parametrize("sched", [FIFOPolicy, CriticalPathPolicy])
    def test_all_schedulers_complete(self, sched, nvm_bw):
        g = make_fork_join_graph(width=8)
        hms = HeterogeneousMemorySystem(dram_for(g), nvm_bw)
        tr = Executor(hms, ExecutorConfig(n_workers=4, scheduler=sched())).run(
            g, NVMOnlyPolicy()
        )
        tr.validate()
        assert len(tr.tasks) == len(g.tasks)


class _MigratingPolicy(BasePolicy):
    """Promotes one object mid-run to exercise the migration machinery."""

    name = "migrating"

    def __init__(self, obj, after_task_name):
        self.obj = obj
        self.after = after_task_name
        self.record = None

    def before_task(self, task, ctx, now):
        self.start = now
        return 0.0

    def after_task(self, task, duration, ctx):
        if task.name == self.after and not ctx.hms.in_dram(self.obj):
            finish = self.start + duration
            self.record = ctx.request_migration(self.obj, ctx.dram, finish)
        return 0.0


class TestMigrationInteraction:
    def _graph(self):
        g = TaskGraph()
        hot = DataObject(name="hot", size_bytes=int(32 * MIB))
        for i in range(14):
            g.add(
                Task(
                    name=f"w{i}",
                    type_name="w",
                    accesses={hot: update_footprint(hot.size_bytes, hot.size_bytes)},
                    compute_time=1e-4,
                    iteration=i,
                )
            )
        return g, hot

    def test_migration_speeds_later_tasks(self, nvm_bw):
        g, hot = self._graph()
        base = run_graph(g, dram(), nvm_bw, NVMOnlyPolicy(), workers=1)
        pol = _MigratingPolicy(hot, "w0")
        tr = run_graph(g, dram(), nvm_bw, pol, workers=1)
        assert pol.record is not None
        assert tr.makespan < base.makespan
        assert tr.migration_count == 1

    def test_writer_stalls_until_copy_lands(self, nvm_bw):
        g, hot = self._graph()
        pol = _MigratingPolicy(hot, "w0")
        tr = run_graph(g, dram(), nvm_bw, pol, workers=1)
        # w1 writes the object, so it must wait for the in-flight copy.
        w1 = next(r for r in rows(tr) if r.task.name == "w1")
        assert w1.stall_time > 0

    def test_reader_proceeds_on_source_copy(self, nvm_bw):
        g = TaskGraph()
        hot = DataObject(name="hot", size_bytes=int(64 * MIB))
        g.add(
            Task(
                name="init",
                type_name="init",
                accesses={hot: write_footprint(hot.size_bytes)},
                compute_time=1e-4,
            )
        )
        for i in range(4):
            g.add(
                Task(
                    name=f"r{i}",
                    type_name="r",
                    accesses={hot: read_footprint(hot.size_bytes)},
                    compute_time=1e-4,
                )
            )
        pol = _MigratingPolicy(hot, "init")
        tr = run_graph(g, dram(), nvm_bw, pol, workers=2)
        # Readers during the copy use the NVM source; none of them stall.
        readers = [r for r in rows(tr) if r.task.name.startswith("r")]
        assert all(r.stall_time == 0 for r in readers)


class TestOverheadAccounting:
    def test_policy_overhead_charged(self, nvm_bw):
        class Overhead(BasePolicy):
            name = "ovh"

            def before_task(self, task, ctx, now):
                return 1e-3

        g = make_chain_graph(n_tasks=4)
        base = run_graph(g, dram(), nvm_bw, NVMOnlyPolicy(), workers=1)
        tr = run_graph(g, dram(), nvm_bw, Overhead(), workers=1)
        assert tr.makespan == pytest.approx(base.makespan + 4e-3, rel=0.01)
        assert tr.total_overhead_time == pytest.approx(4e-3)

    def test_after_task_overhead_follows_the_hook(self, nvm_bw):
        """The hook gets the duration before its own overhead; the trace's
        finish and overhead columns, and the duration histogram, include
        it."""
        ovh = 2e-3
        seen = []

        class Costly(BasePolicy):
            name = "costly"

            def before_task(self, task, ctx, now):
                self.start = now
                return 0.0

            def after_task(self, task, duration, ctx):
                seen.append((self.start, duration))
                return ovh

        g = make_chain_graph(n_tasks=4)
        base = run_graph(g, dram(), nvm_bw, NVMOnlyPolicy(), workers=1)
        telemetry = Telemetry(TelemetryConfig())
        hms = HeterogeneousMemorySystem(dram(), nvm_bw)
        tr = Executor(hms, ExecutorConfig(n_workers=1), telemetry=telemetry).run(
            g, Costly()
        )
        assert [s for s, _ in seen] == tr.start
        # The first task starts at 0, so its hook duration is its finish.
        assert tr.finish[0] == seen[0][1] + ovh
        for (start, duration), finish, want in zip(seen, tr.finish, base.durations()):
            assert duration == pytest.approx(want, rel=1e-12)
            assert finish == pytest.approx(start + duration + ovh, rel=1e-12)
        assert tr.overhead_time == [ovh] * 4
        assert tr.makespan == tr.finish[-1]
        assert tr.makespan == pytest.approx(base.makespan + 4 * ovh, rel=1e-12)
        hist = telemetry.registry.histogram("task_duration_seconds")
        assert hist.count == 4
        assert hist.sum == tr.total_task_time


class TestContextLookahead:
    def test_upcoming_and_remaining(self, nvm_bw):
        seen = {}

        class Spy(BasePolicy):
            name = "spy"

            def before_task(self, task, ctx, now):
                if task.name == "step0":
                    idx = ctx.remaining_indices()
                    tasks = ctx.graph.exec_core().tasks
                    seen["upcoming"] = [tasks[i].name for i in idx[:3]]
                    seen["remaining"] = len(idx)
                return 0.0

        g = make_chain_graph(n_tasks=5)
        run_graph(g, dram(), nvm_bw, Spy(), workers=1)
        # before_task fires before dispatch bookkeeping: w0 still counts.
        assert seen["upcoming"] == ["step0", "step1", "step2"]
        assert seen["remaining"] == 5
