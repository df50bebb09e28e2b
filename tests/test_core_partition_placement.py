"""Partitioning transform, initial placement, lookahead, placement planning."""

import pytest

from repro.baselines import NVMOnlyPolicy
from repro.core.demand import DemandBatch
from repro.core.initial import initial_placement
from repro.core.lookahead import estimate_start_offsets, first_use_offsets
from repro.core.manager import DataManagerPolicy, ManagerConfig
from repro.core.models import ObjectStats
from repro.core.partition import partition_graph
from repro.core.placement import (
    ObjectDemand,
    PlanConfig,
    make_plan,
    object_weight,
)
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.runtime import TaskRuntime
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.base import build


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
        chosen = initial_placement(objs, int(2.5 * MIB), reserve_fraction=1.0)
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
        chosen = initial_placement(objs, int(10 * MIB), reserve_fraction=0.5)
        assert len(chosen) == 5


class TestLookahead:
    def _tasks(self, n=4):
        o = DataObject(name="o", size_bytes=int(MIB))
        return [
            Task(
                name=f"t{i}",
                type_name="t",
                accesses={o: update_footprint(o.size_bytes, o.size_bytes)},
            )
            for i in range(n)
        ], o

    def test_start_offsets_area_argument(self):
        tasks, _ = self._tasks(4)
        offs = estimate_start_offsets(tasks, lambda t: 1.0, n_workers=2)
        assert offs == pytest.approx([0.0, 0.5, 1.0, 1.5])

    def test_first_use_offsets(self):
        tasks, o = self._tasks(3)
        first = first_use_offsets(tasks, lambda t: 1.0, n_workers=1)
        assert first[o.uid] == pytest.approx(0.0)

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
        first = first_use_offsets([t0, t1], lambda t: 1.0, n_workers=1)
        assert first[o.uid] == pytest.approx(1.0)


class TestPlanning:
    def _demand(self, mem_seconds=0.5, size=int(8 * MIB), in_dram=False, offset=0.0,
                bw=5e9):
        st = ObjectStats(uid=DataObject(name="x", size_bytes=size).uid, size_bytes=size)
        st.add(10_000, 1_000, 8_000, bw, mem_seconds=mem_seconds, dram_frac=0.0)
        return ObjectDemand(stats=st, in_dram=in_dram, first_use_offset=offset)

    def test_resident_weight_has_no_cost(self, calibration_bw):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        cfg = PlanConfig()
        w_in = object_weight(self._demand(in_dram=True), n, d, calibration_bw, cfg, 0.0)
        w_out = object_weight(self._demand(in_dram=False), n, d, calibration_bw, cfg, 0.0)
        assert w_in > w_out

    def test_overlap_window_reduces_cost(self, calibration_bw):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        cfg = PlanConfig()
        near = object_weight(self._demand(offset=0.0), n, d, calibration_bw, cfg, 0.0)
        far = object_weight(self._demand(offset=10.0), n, d, calibration_bw, cfg, 0.0)
        assert far > near

    def test_dram_pressure_adds_eviction_cost(self, calibration_bw):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        cfg = PlanConfig()
        empty = object_weight(self._demand(), n, d, calibration_bw, cfg, 0.0)
        full = object_weight(self._demand(), n, d, calibration_bw, cfg, 1.0)
        assert full < empty

    def test_make_plan_respects_capacity(self, calibration_bw):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        demands = [self._demand(mem_seconds=0.5 + i * 0.1) for i in range(8)]
        batch = DemandBatch.from_demands(demands)
        plan = make_plan(
            "global", batch, int(16 * MIB), 0, n, d, calibration_bw, PlanConfig()
        )
        chosen = sum(
            de.stats.size_bytes for de in demands if de.stats.uid in plan.dram_set
        )
        assert chosen <= 16 * MIB

    def test_benefit_scale_shrinks_selection_value(self, calibration_bw):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        batch = DemandBatch.from_demands([self._demand()])
        full = make_plan("g", batch, int(64 * MIB), 0, n, d, calibration_bw, PlanConfig())
        damped = make_plan(
            "g", batch, int(64 * MIB), 0, n, d, calibration_bw, PlanConfig(),
            benefit_scale=0.01,
        )
        assert damped.predicted_gain < full.predicted_gain
