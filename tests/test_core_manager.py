"""The data manager end-to-end on controlled micro-programs."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import NVMOnlyPolicy
from repro.core import manager, placement
from repro.core.manager import DataManagerPolicy, ManagerConfig, _resident_worth
from repro.core.placement import (
    CAPACITY_FRACTION,
    COST_MARGIN,
    PlanConfig,
    _weights_for,
)
from repro.experiments.runner import make_policy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.migration import copy_time
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import (
    chase_footprint,
    read_footprint,
    update_footprint,
)
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads import build

from tests.helpers import dram_flags


def hot_cold_program(iterations=12, hot_mib=8, cold_mib=48):
    """One hot streamed object + one cold object, repeatedly; the manager
    must keep the hot one in DRAM."""
    g = TaskGraph()
    hot = DataObject(name="hot", size_bytes=int(hot_mib * MIB))
    cold = DataObject(name="cold", size_bytes=int(cold_mib * MIB))
    for i in range(iterations):
        g.add(
            Task(
                name=f"work{i}",
                type_name="work",
                accesses={
                    hot: update_footprint(hot.size_bytes, hot.size_bytes, reuse=4.0),
                    cold: read_footprint(cold.size_bytes / 16),
                },
                compute_time=2e-4,
                iteration=i,
            )
        )
    return g, hot, cold


def run(graph, policy, nvm, dram_cap=int(16 * MIB), workers=2):
    hms = HeterogeneousMemorySystem(dram(dram_cap), nvm)
    return Executor(hms, ExecutorConfig(n_workers=workers)).run(graph, policy)


class TestManagerEndToEnd:
    def test_beats_nvm_only_on_hot_cold(self, nvm_bw):
        g, hot, cold = hot_cold_program()
        base = run(g, NVMOnlyPolicy(), nvm_bw)
        pol = DataManagerPolicy()
        tr = run(g, pol, nvm_bw)
        tr.validate()
        assert tr.makespan < base.makespan

    def test_hot_object_ends_in_dram(self, nvm_bw):
        g, hot, cold = hot_cold_program()
        # Remove static hints so placement must come from runtime profiling.
        hot.static_ref_count = 0.0
        cold.static_ref_count = 0.0
        pol = DataManagerPolicy()
        hms = HeterogeneousMemorySystem(dram(int(16 * MIB)), nvm_bw)
        Executor(hms, ExecutorConfig(n_workers=2)).run(g, pol)
        assert hms.in_dram(hot)
        assert not hms.in_dram(cold)

    def test_latency_sensitive_object_promoted(self, nvm_lat):
        g = TaskGraph()
        lst = DataObject(name="list", size_bytes=int(8 * MIB))
        for i in range(14):
            g.add(
                Task(
                    name=f"chase{i}",
                    type_name="chase",
                    accesses={lst: chase_footprint(80_000)},
                    compute_time=1e-4,
                    iteration=i,
                )
            )
        base = run(g, NVMOnlyPolicy(), nvm_lat)
        tr = run(g, DataManagerPolicy(), nvm_lat)
        assert tr.makespan < base.makespan
        assert tr.migration_count >= 1

    def test_does_not_lose_when_nvm_equals_dram(self):
        """On an 'NVM' identical to DRAM there is nothing to win: the
        manager must stay close to the do-nothing baseline."""
        from repro.memory.device import DeviceKind

        same = dram().scaled(name="nvm-same", kind=DeviceKind.NVM, capacity_bytes=1 << 34)
        g, *_ = hot_cold_program()
        base = run(g, NVMOnlyPolicy(), same)
        tr = run(g, DataManagerPolicy(), same)
        assert tr.makespan <= base.makespan * 1.05

    def test_stats_populated(self, nvm_bw):
        g, *_ = hot_cold_program()
        pol = DataManagerPolicy()
        run(g, pol, nvm_bw)
        st = pol.stats
        assert st["profiled_tasks"] >= 1
        assert st["replans"] >= 1
        assert "skepticism" in st

    def test_runtime_overhead_is_small(self, nvm_bw):
        g, *_ = hot_cold_program(iterations=20)
        tr = run(g, DataManagerPolicy(), nvm_bw)
        assert tr.overhead_fraction() < 0.05

    def test_policy_reusable_across_runs(self, nvm_bw):
        g1, *_ = hot_cold_program()
        g2, *_ = hot_cold_program()
        pol = DataManagerPolicy()
        t1 = run(g1, pol, nvm_bw)
        t2 = run(g2, pol, nvm_bw)
        assert t1.makespan == pytest.approx(t2.makespan, rel=1e-9)


class TestManagerConfigKnobs:
    def test_initial_placement_uses_static_refs(self, nvm_bw):
        g, hot, cold = hot_cold_program()
        hot.static_ref_count = 1e9
        cold.static_ref_count = 1.0
        pol = DataManagerPolicy()
        hms = HeterogeneousMemorySystem(dram(int(16 * MIB)), nvm_bw)
        tr = Executor(hms, ExecutorConfig(n_workers=2)).run(g, pol)
        first = min(range(len(tr.tasks)), key=tr.start.__getitem__)
        assert dram_flags(tr, first)[hot.uid]

    def test_disable_initial_placement(self, nvm_bw):
        g, hot, _ = hot_cold_program()
        hot.static_ref_count = 1e9
        pol = DataManagerPolicy(ManagerConfig(enable_initial_placement=False))
        hms = HeterogeneousMemorySystem(dram(int(16 * MIB)), nvm_bw)
        tr = Executor(hms, ExecutorConfig(n_workers=2)).run(g, pol)
        first = min(range(len(tr.tasks)), key=tr.start.__getitem__)
        assert not dram_flags(tr, first)[hot.uid]

    @pytest.mark.parametrize(
        "name",
        [
            "per_task_sync_overhead_s",
            "per_demand_plan_overhead_s",
            "per_plan_fixed_overhead_s",
            "per_migration_request_overhead_s",
            "duration_alpha",
            "max_moves_per_object",
            "decision_overhead_budget",
            "t1",
            "t2",
            "capacity_fraction",
            "cost_margin",
            "use_confidence",
        ],
    )
    def test_fixed_constants_are_not_settable(self, name):
        with pytest.raises(TypeError):
            make_policy("tahoe", **{name: 1})

    def test_move_cap_limits_pingpong(self, nvm_bw, monkeypatch):
        monkeypatch.setattr(manager, "MAX_MOVES_PER_OBJECT", 1)
        g, *_ = hot_cold_program(iterations=30)
        pol = DataManagerPolicy()
        tr = run(g, pol, nvm_bw)
        # with the cap, each object crosses at most once in each direction
        per_obj: dict[int, int] = {}
        for rec in tr.migrations.records:
            per_obj[rec.obj_uid] = per_obj.get(rec.obj_uid, 0) + 1
        assert all(v <= 1 for v in per_obj.values())

    def test_adaptation_detects_shift(self, nvm_bw):
        """A mid-run 6x intensity shift on one object must trigger
        re-profiling when adaptation is on."""
        g = TaskGraph()
        a = DataObject(name="a", size_bytes=int(8 * MIB))
        for i in range(40):
            boost = 6.0 if i >= 20 else 1.0
            g.add(
                Task(
                    name=f"t{i}",
                    type_name="t",
                    accesses={
                        a: update_footprint(
                            a.size_bytes, a.size_bytes, reuse=boost
                        )
                    },
                    compute_time=1e-4,
                    iteration=i,
                )
            )
        pol = DataManagerPolicy()
        run(g, pol, nvm_bw)
        assert pol.stats["adaptation_triggers"] >= 1

    def test_paper_counter_config_runs(self, nvm_bw):
        g, *_ = hot_cold_program()
        pol = DataManagerPolicy(
            ManagerConfig(plan=PlanConfig(use_miss_counter=False))
        )
        tr = run(g, pol, nvm_bw)
        tr.validate()


class TestPlanCopyCost:
    def test_plan_prices_the_configured_migration_overhead(self, nvm_bw, monkeypatch):
        """The planner's copy costs (Eqs. 6–7) in a live run are the ones
        enforcement and the copy lane charge — ``copy_time``, fixed
        per-migration overhead included — on every non-resident object."""
        calls = []
        real = manager.make_plan

        def spy(*args):
            plans = real(*args)
            calls.append((args, plans))
            return plans

        monkeypatch.setattr(manager, "make_plan", spy)
        g, *_ = hot_cold_program()
        hms = HeterogeneousMemorySystem(dram(int(16 * MIB)), nvm_bw)
        config = ExecutorConfig(n_workers=2)
        Executor(hms, config).run(g, DataManagerPolicy())

        priced = 0
        for (scopes, capacity, used, nvm, dram_dev, calib, cfg), plans in calls:
            for (_, batch, scale), plan in zip(scopes, plans, strict=True):
                # Each lane's benefit alone: the batch weighed as if resident.
                resident = batch.with_placement(
                    np.ones(len(batch)), batch.first_use_offset
                )
                benefit = _weights_for(resident, nvm, dram_dev, calib, cfg, 0.0, scale)
                budget = int(capacity * CAPACITY_FRACTION)
                pressure = max(0.0, min(1.0, used / max(1, budget)))
                for i in np.flatnonzero(~batch.in_dram).tolist():
                    size = int(batch.size_bytes[i])
                    unhidden = copy_time(size, nvm, dram_dev) - max(
                        float(batch.first_use_offset[i]), 0.0
                    )
                    cost = max(unhidden, 0.0) + pressure * copy_time(size, dram_dev, nvm)
                    assert plan.weights[i] == pytest.approx(
                        benefit[i] - COST_MARGIN * cost, rel=1e-12
                    )
                    priced += cost > 0.0
        assert priced > 0


class TestOnePlanningPass:
    def test_one_weigher_call_and_one_built_plan_per_replan(self, monkeypatch):
        """Every replan weighs all its scopes in one ``_weights_for``
        call, and only the enforced plan builds its uid set and maps."""
        weighs = []
        real_weigh = placement._weights_for

        def weigh(*args):
            weighs.append(len(args[0]))
            return real_weigh(*args)

        rounds = []
        real_plan = manager.make_plan

        def plan(*args):
            before = len(weighs)
            plans = real_plan(*args)
            rounds.append((weighs[before:], plans))
            return plans

        monkeypatch.setattr(placement, "_weights_for", weigh)
        monkeypatch.setattr(manager, "make_plan", plan)
        w = build("heat", grid=6, iterations=6)
        hms = HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))
        Executor(hms, ExecutorConfig(n_workers=8)).run(w.graph, DataManagerPolicy())

        maps = ("dram_set", "weight_of", "first_use_of")
        built = 0
        for lanes, plans in rounds:
            assert lanes == [sum(len(p.weights) for p in plans)]
            n_built = sum(any(m in vars(p) for m in maps) for p in plans)
            assert n_built <= 1
            built += n_built
        assert any(len(plans) == 2 for _, plans in rounds)
        assert built > 0


def dict_walk_worth(uids, weights, resident_uids) -> float:
    """The resident worth as a walk of the residency snapshot over a
    uid -> weight dict: the positive weights, left to right."""
    weights_get = dict(zip(uids, weights)).get
    current = 0.0
    for uid in resident_uids:
        w = weights_get(uid, 0.0)
        if w > 0.0:
            current += w
    return current


_WEIGHTS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1.0, max_value=1e3),
    st.sampled_from([0.0, -0.0, 5e-324, 0.1, 0.2, 0.3, float("inf"), float("-inf")]),
)


@st.composite
def resident_cases(draw):
    """``(obj_uid, objects, weights, resident_uids)``: a graph's uids by
    dense index, in another order than the indices, so the snapshot's
    order is not the index order; a batch's dense objects and weights;
    and residents in the batch, in the graph but outside the batch, and
    outside the graph."""
    n_objects = draw(st.integers(1, 30))
    obj_uid = draw(st.permutations(range(n_objects)))
    objects = draw(st.lists(st.integers(0, n_objects - 1), unique=True))
    weights = draw(st.lists(_WEIGHTS, min_size=len(objects), max_size=len(objects)))
    resident_uids = draw(st.sets(st.sampled_from(obj_uid))) | draw(
        st.sets(st.integers(n_objects, 2**40), max_size=4)
    )
    return obj_uid, objects, weights, resident_uids


@settings(max_examples=200, deadline=None)
@given(case=resident_cases())
# Left to right in snapshot order: (0.3 + 0.2) + 0.1 rounds to 0.6,
# (0.1 + 0.2) + 0.3 in index order to 0.6000000000000001.
@example(case=([2, 1, 0], [0, 1, 2], [0.1, 0.2, 0.3], {0, 1, 2, 99}))
def test_resident_worth_matches_dict_walk(case):
    """Property: the resident worth gathered from a plan's weight column
    is bitwise the dict walk."""
    obj_uid, objects, weights, resident_uids = case
    index_of = {u: i for i, u in enumerate(obj_uid)}
    resident_idx = [i for i in map(index_of.get, resident_uids) if i is not None]
    got = _resident_worth(
        np.array(weights, dtype=np.float64),
        np.array(objects, dtype=np.int64),
        resident_idx,
        len(obj_uid),
    )
    want = dict_walk_worth([obj_uid[i] for i in objects], weights, resident_uids)
    assert struct.pack("<d", got) == struct.pack("<d", want)
