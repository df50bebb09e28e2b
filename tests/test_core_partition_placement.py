"""Partitioning transform, initial placement, lookahead, placement planning."""

import numpy as np
import pytest

from repro.baselines import NVMOnlyPolicy
from repro.core.initial import RESERVE_FRACTION, initial_placement
from repro.core.demand import first_use_offsets_split, scan_frontier
from repro.core.manager import DataManagerPolicy, ManagerConfig
from repro.core.partition import partition_graph
from repro.core.placement import PlanConfig, make_plan
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.runtime import TaskRuntime
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.base import build

from tests.helpers import demand_batch


class TestPartitionGraph:
    def _graph(self, span=None):
        g = TaskGraph()
        big = DataObject(name="big", size_bytes=int(128 * MIB), partitionable=True)
        small = DataObject(name="small", size_bytes=int(4 * MIB))
        acc = ObjectAccess(
            AccessMode.READ,
            loads=int(128 * MIB / 8),
            stores=0,
            span=span,
        )
        g.add(
            Task(
                name="t",
                type_name="t",
                accesses={big: acc, small: read_footprint(small.size_bytes)},
            )
        )
        return g, big, small

    def test_splits_large_partitionable_objects(self):
        g, big, small = self._graph()
        partition_graph(g, int(32 * MIB))
        names = {o.name for o in g.objects}
        assert "big" not in names
        assert {"big[0]", "big[3]", "small"} <= names

    def test_access_counts_conserved(self):
        g, big, _ = self._graph()
        before = sum(a.loads for t in g.tasks for a in t.accesses.values())
        partition_graph(g, int(32 * MIB))
        after = sum(a.loads for t in g.tasks for a in t.accesses.values())
        assert after == pytest.approx(before, rel=0.01)

    def test_span_restricts_chunks(self):
        g, big, small = self._graph(span=(0.0, 0.25))
        partition_graph(g, int(32 * MIB))
        task = g.tasks[0]
        touched = {o.name for o in task.accesses if o.name.startswith("big")}
        assert touched == {"big[0]"}

    def test_span_straddling_chunks_distributes_proportionally(self):
        g, big, _ = self._graph(span=(0.125, 0.375))
        partition_graph(g, int(32 * MIB))
        task = g.tasks[0]
        loads = {
            o.name: a.loads for o, a in task.accesses.items() if o.name.startswith("big")
        }
        assert set(loads) == {"big[0]", "big[1]"}
        assert loads["big[0]"] == pytest.approx(loads["big[1]"], rel=0.01)

    def test_non_partitionable_untouched(self):
        g = TaskGraph()
        big = DataObject(name="aliased", size_bytes=int(128 * MIB), partitionable=False)
        g.add(Task(name="t", type_name="t", accesses={big: read_footprint(big.size_bytes)}))
        partition_graph(g, int(32 * MIB))
        assert [o.name for o in g.objects] == ["aliased"]

    def test_idempotent(self):
        g, *_ = self._graph()
        partition_graph(g, int(32 * MIB))
        n_objs = len(g.objects)
        partition_graph(g, int(32 * MIB))
        assert len(g.objects) == n_objs

    def test_invalid_chunk_size(self):
        g, *_ = self._graph()
        with pytest.raises(ValueError):
            partition_graph(g, 0)

    def test_equal_chunk_footprints_share_one_instance(self):
        """The rewrite interns its footprints: fft at 1 MiB has 14,526
        access rows but only a few hundred distinct chunk footprints, so
        the graph's footprint table stays short."""
        graph = partition_graph(build("fft").graph, MIB)
        core = graph.exec_core()
        n_rows = len(core.accesses.obj)
        footprints = {id(a) for t in graph.tasks for a in t.accesses.values()}
        assert n_rows > 10_000
        assert len(footprints) == len(core._rows.footprints) < n_rows // 10

    def test_partition_after_a_run_retimes_the_chunks(self):
        """A graph that already ran unpartitioned, then under a
        partitioning policy: every run times the current chunks, never
        a stale access table of the original objects."""
        fft = build("fft").graph
        rt = TaskRuntime()
        rt.run(NVMOnlyPolicy(), graph=fft)
        trace = rt.run(
            DataManagerPolicy(ManagerConfig(partition_max_bytes=16 * MIB)), graph=fft
        )
        trace.validate()
        assert fft.partitioned_at == 16 * MIB
        fresh = partition_graph(build("fft").graph, 16 * MIB)
        assert rt.run(NVMOnlyPolicy(), graph=fft).makespan == (
            rt.run(NVMOnlyPolicy(), graph=fresh).makespan
        )

    def test_runs_and_partitions_add_no_graph_attributes(self):
        """Derived state lives in the graph's snapshot, never as
        attributes that runs or partitioning attach to the graph."""
        graph = build("fft").graph
        keys = set(vars(graph))
        task_keys = [set(vars(t)) for t in graph.tasks]
        rt = TaskRuntime()
        rt.run(DataManagerPolicy(), graph=graph)
        assert set(vars(graph)) == keys
        rt.run(NVMOnlyPolicy(), graph=graph)
        assert set(vars(graph)) == keys
        partition_graph(graph, 16 * MIB)
        assert set(vars(graph)) == keys
        assert [set(vars(t)) for t in graph.tasks] == task_keys


class TestInitialPlacement:
    def test_places_by_density_within_budget(self):
        objs = [
            DataObject(name="hot", size_bytes=int(MIB), static_ref_count=1e9),
            DataObject(name="warm", size_bytes=int(MIB), static_ref_count=1e6),
            DataObject(name="cold", size_bytes=int(MIB), static_ref_count=1e3),
        ]
        # 90% of 2.5 MiB holds two of the three 1 MiB objects.
        chosen = initial_placement(objs, int(2.5 * MIB))
        assert objs[0].uid in chosen and objs[1].uid in chosen
        assert objs[2].uid not in chosen

    def test_unknown_objects_never_chosen(self):
        objs = [DataObject(name="unknown", size_bytes=int(MIB), static_ref_count=0.0)]
        assert initial_placement(objs, int(64 * MIB)) == set()

    def test_reserve_holds_back_headroom(self):
        objs = [
            DataObject(name=f"o{i}", size_bytes=int(MIB), static_ref_count=100.0)
            for i in range(10)
        ]
        assert RESERVE_FRACTION == 0.9
        chosen = initial_placement(objs, int(10 * MIB))
        assert len(chosen) == 9


class TestLookahead:
    """First-use offsets (the Eq. 6 overlap windows) as the replan
    computes them, every task type lasting 1 s."""

    @staticmethod
    def _first_use(tasks, n_workers):
        g = TaskGraph()
        for t in tasks:
            g.add(t)
        core = g.exec_core()
        every = np.arange(len(tasks))
        front = scan_frontier(
            core, every, len(tasks), np.ones(len(core.type_names)), n_workers
        )
        _, (objs, offsets) = first_use_offsets_split(core, front)
        return dict(zip(core.accesses.obj_uid[objs].tolist(), offsets.tolist()))

    def _tasks(self, n=4, shared=True):
        objs = [DataObject(name=f"o{i}", size_bytes=int(MIB)) for i in range(n)]
        if shared:
            objs = [objs[0]] * n
        return [
            Task(
                name=f"t{i}",
                type_name="t",
                accesses={o: update_footprint(o.size_bytes, o.size_bytes)},
            )
            for i, o in enumerate(objs)
        ], objs

    def test_start_offsets_area_argument(self):
        tasks, objs = self._tasks(4, shared=False)
        first = self._first_use(tasks, n_workers=2)
        assert [first[o.uid] for o in objs] == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_first_use_offsets(self):
        tasks, objs = self._tasks(3)
        first = self._first_use(tasks, n_workers=1)
        assert first == {objs[0].uid: pytest.approx(0.0)}

    def test_zero_traffic_access_not_first_use(self):
        o = DataObject(name="o", size_bytes=int(MIB))
        t0 = Task(
            name="z",
            type_name="z",
            accesses={o: ObjectAccess(AccessMode.READ, loads=0, stores=0)},
        )
        t1 = Task(
            name="r", type_name="r", accesses={o: read_footprint(o.size_bytes)}
        )
        first = self._first_use([t0, t1], n_workers=1)
        assert first[o.uid] == pytest.approx(1.0)


class TestPlanning:
    def _plan(self, calib, *, n=1, mem_seconds=0.5, in_dram=False, offset=0.0,
              used=0, capacity=int(64 * MIB), benefit_scale=1.0):
        """Plan ``n`` 8 MiB objects with the same counts; ``mem_seconds``,
        ``in_dram`` and ``offset`` are one value for all or a list of one
        per object.  Returns the plan and the batch it weighed."""

        def col(v):
            return v if isinstance(v, list) else [v] * n

        batch = demand_batch(
            [int(8 * MIB)] * n,
            loads=[10_000.0] * n, stores=[1_000.0] * n, misses=[8_000.0] * n,
            bw_demand=[5e9] * n, mem_seconds=col(mem_seconds),
            in_dram=col(in_dram), first_use_offset=col(offset),
        )
        d, nvm = dram(), nvm_bandwidth_scaled(0.5)
        (plan,) = make_plan(
            [("global", batch, benefit_scale)], capacity, used, nvm, d, calib, PlanConfig()
        )
        return plan, batch

    def test_resident_weight_has_no_cost(self, calibration_bw):
        plan, _ = self._plan(calibration_bw, n=2, in_dram=[True, False])
        assert plan.weight_of[1] > plan.weight_of[2]

    def test_overlap_window_reduces_cost(self, calibration_bw):
        plan, _ = self._plan(calibration_bw, n=2, offset=[0.0, 10.0])
        assert plan.weight_of[2] > plan.weight_of[1]

    def test_dram_pressure_adds_eviction_cost(self, calibration_bw):
        empty, _ = self._plan(calibration_bw)
        full, _ = self._plan(calibration_bw, used=int(64 * MIB))
        assert full.weight_of[1] < empty.weight_of[1]

    def test_make_plan_respects_capacity(self, calibration_bw):
        plan, batch = self._plan(
            calibration_bw, n=8, mem_seconds=[0.5 + i * 0.1 for i in range(8)],
            capacity=int(16 * MIB),
        )
        chosen = sum(
            size for uid, size in zip(batch.uid.tolist(), batch.size_bytes.tolist())
            if uid in plan.dram_set
        )
        assert plan.dram_set and chosen <= 16 * MIB

    def test_benefit_scale_shrinks_selection_value(self, calibration_bw):
        full, _ = self._plan(calibration_bw)
        damped, _ = self._plan(calibration_bw, benefit_scale=0.01)
        assert damped.predicted_gain < full.predicted_gain
