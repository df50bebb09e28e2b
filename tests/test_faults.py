"""Fault-injection subsystem: plans, injector, resilience, cache neutrality."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import DataManagerPolicy
from repro.experiments.runner import execute_spec
from repro.experiments.spec import RunSpec, canonical_json
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    PRESETS,
    CapacityLoss,
    DegradedWindow,
    FaultPlan,
    resolve_plan,
    stress_plan,
)
from repro.memory.allocator import FreeListAllocator
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.migration import (
    FAILURE_DETECT_FRACTION,
    MAX_COPY_RETRIES,
    RETRY_BACKOFF_S,
    MigrationEngine,
    copy_time,
)
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.executor import Executor, ExecutorConfig
from repro.util.units import MIB

from tests.helpers import make_fork_join_graph, plan_json
from tests.reference_executor import available_at


class TestFaultPlan:
    def test_roundtrip_json(self):
        plan = FaultPlan(
            seed=7,
            copy_fail_prob=0.25,
            copy_fail_every=3,
            windows=(
                DegradedWindow("nvm", 0.0, 1.5, bandwidth_scale=0.5),
                DegradedWindow("dram", 1e-3, latency_scale=2.0),  # open-ended
            ),
            capacity_losses=(CapacityLoss("dram", 2e-3, 4 * MIB),),
        )
        assert FaultPlan.from_json(plan_json(plan)) == plan
        # inf end_s must survive JSON as null
        assert json.loads(plan_json(plan))["windows"][1]["end_s"] is None

    def test_hashable_and_frozen(self):
        a = stress_plan(0.5)
        b = stress_plan(0.5)
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.seed = 1

    def test_dicts_coerced(self):
        plan = FaultPlan(
            windows=[{"device": "nvm", "bandwidth_scale": 0.5}],
            capacity_losses=[{"device": "dram", "lose_bytes": MIB}],
        )
        assert isinstance(plan.windows[0], DegradedWindow)
        assert isinstance(plan.capacity_losses[0], CapacityLoss)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(copy_fail_prob=1.5)
        with pytest.raises(ValueError):
            DegradedWindow(bandwidth_scale=0.0)
        with pytest.raises(ValueError):
            DegradedWindow(start_s=1.0, end_s=0.5)
        with pytest.raises(ValueError):
            FaultPlan.from_dict({"bogus_field": 1})

    def test_is_empty_and_stress_dial(self):
        assert FaultPlan().is_empty
        assert stress_plan(0.0).is_empty
        assert not stress_plan(0.25).is_empty
        with pytest.raises(ValueError):
            stress_plan(1.5)

    def test_presets_resolve(self):
        for name in PRESETS:
            plan = resolve_plan(name)
            assert plan is None or isinstance(plan, FaultPlan)
        assert resolve_plan("none") is None  # empty normalizes to None

    def test_resolve_forms(self, tmp_path):
        plan = PRESETS["flaky-copies"]
        assert resolve_plan(plan) is plan
        assert resolve_plan(plan_json(plan)) == plan
        assert resolve_plan(plan.to_dict()) == plan
        assert resolve_plan(None) is None
        path = tmp_path / "plan.json"
        path.write_text(plan_json(plan))
        assert resolve_plan(f"@{path}") == plan
        with pytest.raises(KeyError, match="did you mean"):
            resolve_plan("moderat")
        with pytest.raises(TypeError):
            resolve_plan(42)


class TestInjector:
    def _machine(self):
        return HeterogeneousMemorySystem(dram(64 * MIB), nvm_bandwidth_scaled(0.5))

    def test_deterministic_per_seed(self):
        plan = FaultPlan(seed=3, copy_fail_prob=0.5)
        seq = []
        for _ in range(2):
            inj = FaultInjector(plan)
            seq.append(
                [inj.copy_attempt_fails(inj.begin_copy(), 0, 0.0, 1, 100) for _ in range(50)]
            )
        assert seq[0] == seq[1]
        assert any(seq[0]) and not all(seq[0])

    def test_every_nth(self):
        inj = FaultInjector(FaultPlan(copy_fail_every=3))
        fails = [
            inj.copy_attempt_fails(inj.begin_copy(), 0, 0.0, 1, 100) for _ in range(9)
        ]
        assert fails == [False, False, True] * 3
        # retries (attempt > 0) of the nth copy succeed
        assert not inj.copy_attempt_fails(3, 1, 0.0, 1, 100)

    def test_window_penalties_and_roles(self):
        plan = FaultPlan(
            windows=(DegradedWindow("nvm", 1.0, 2.0, bandwidth_scale=0.5, latency_scale=3.0),)
        )
        inj = FaultInjector.for_hms(plan, self._machine())
        nvm_name = self._machine().nvm.name
        assert inj.bw_penalty(nvm_name, 1.5) == pytest.approx(2.0)
        assert inj.lat_penalty(nvm_name, 1.5) == pytest.approx(3.0)
        assert inj.bw_penalty(nvm_name, 2.5) == 1.0  # outside the window
        assert inj.bw_penalty("dram", 1.5) == 1.0  # other device
        assert inj.copy_penalty("dram", nvm_name, 1.5) == pytest.approx(2.0)

    def test_capacity_losses_delivered_once_in_order(self):
        plan = FaultPlan(
            capacity_losses=(
                CapacityLoss("dram", 2.0, MIB),
                CapacityLoss("dram", 1.0, 2 * MIB),
            )
        )
        inj = FaultInjector(plan)
        assert [c.at_s for c in inj.pop_capacity_losses(1.5)] == [1.0]
        assert [c.at_s for c in inj.pop_capacity_losses(5.0)] == [2.0]
        assert inj.pop_capacity_losses(10.0) == []

    def test_degraded_slices_clip_to_makespan(self):
        plan = FaultPlan(windows=(DegradedWindow("nvm", 0.5, bandwidth_scale=0.5),))
        inj = FaultInjector(plan)
        (s,) = inj.degraded_slices(2.0)
        assert (s["start_s"], s["end_s"]) == (0.5, 2.0)
        assert inj.degraded_time(2.0) == pytest.approx(1.5)
        assert inj.degraded_slices(0.25) == []


class TestEngineRetry:
    def _devices(self):
        return dram(64 * MIB), nvm_bandwidth_scaled(0.5)

    def test_retry_then_recover(self):
        d, n = self._devices()
        inj = FaultInjector(FaultPlan(copy_fail_every=1))  # first attempt always fails
        eng = MigrationEngine(injector=inj)
        rec = eng.schedule(1, MIB, n, d, request_time=0.0)
        base = copy_time(MIB, n, d)
        assert rec.attempts == 2 and not rec.failed
        assert rec.end_time == pytest.approx(
            base * FAILURE_DETECT_FRACTION + RETRY_BACKOFF_S + base
        )
        assert eng.retry_count == 1 and eng.recovered_count == 1 and eng.failed_count == 0
        assert available_at(eng, 1) == eng._available_at[1] == rec.end_time

    def test_permanent_failure(self):
        d, n = self._devices()
        inj = FaultInjector(FaultPlan(copy_fail_prob=1.0))
        eng = MigrationEngine(injector=inj)
        rec = eng.schedule(1, MIB, n, d, request_time=0.0)
        assert rec.failed and rec.attempts == MAX_COPY_RETRIES + 1
        assert rec.exposed == 0.0
        assert eng.failed_count == 1 and eng.recovered_count == 0
        # nothing landed: object availability and byte counts untouched
        assert available_at(eng, 1) == eng._available_at.get(1, 0.0) == 0.0
        assert eng.migrated_bytes == 0
        # but the lane burned time on the failed attempts
        assert eng.lane_free_at > 0.0

    def test_critical_copy_never_fails(self):
        d, n = self._devices()
        inj = FaultInjector(FaultPlan(copy_fail_prob=1.0))
        eng = MigrationEngine(injector=inj)
        rec = eng.schedule(1, MIB, d, n, request_time=0.0, critical=True)
        assert not rec.failed
        assert rec.attempts == MAX_COPY_RETRIES + 1
        assert available_at(eng, 1) == eng._available_at[1] == rec.end_time

    def test_degraded_window_stretches_copy(self):
        d, n = self._devices()
        inj = FaultInjector(
            FaultPlan(windows=(DegradedWindow(n.name, bandwidth_scale=0.5),))
        )
        eng = MigrationEngine(injector=inj)
        rec = eng.schedule(1, MIB, n, d, request_time=0.0)
        assert rec.duration == pytest.approx(2.0 * copy_time(MIB, n, d))

    def test_no_injector_unchanged(self):
        d, n = self._devices()
        eng = MigrationEngine()
        rec = eng.schedule(1, MIB, n, d, request_time=0.0)
        assert rec.attempts == 1 and not rec.failed
        assert eng.retry_count == 0 and eng.failed_count == 0


class TestCapacityLossMechanics:
    def test_allocator_reduce_capacity(self):
        alloc = FreeListAllocator(capacity=10 * MIB)
        alloc.alloc(4 * MIB)
        removed = alloc.reduce_capacity(8 * MIB)
        assert removed == 6 * MIB  # only free space is carvable
        assert alloc.capacity == 4 * MIB
        assert alloc.free_bytes == 0
        # a second call with nothing free removes nothing
        assert alloc.reduce_capacity(MIB) == 0

    def test_hms_dram_loss_evicts_largest_first(self):
        from repro.tasking.dataobj import DataObject

        hms = HeterogeneousMemorySystem(dram(16 * MIB), nvm_bandwidth_scaled(0.5))
        small = DataObject(name="small", size_bytes=2 * MIB)
        big = DataObject(name="big", size_bytes=8 * MIB)
        for obj in (small, big):
            hms.allocate(obj, hms.dram)
        hms.mark_dirty(big)
        lost, evicted = hms.lose_capacity("dram", 10 * MIB)
        assert lost == 10 * MIB
        assert [(o.name, dirty) for o, dirty in evicted] == [("big", True)]
        assert hms.device_of(big).name == hms.nvm.name
        assert hms.device_of(small).name == hms.dram.name
        hms.check_invariants()

    def test_hms_nvm_loss_never_evicts(self):
        from repro.tasking.dataobj import DataObject

        hms = HeterogeneousMemorySystem(dram(16 * MIB), nvm_bandwidth_scaled(0.5, 8 * MIB))
        obj = DataObject(name="o", size_bytes=6 * MIB)
        hms.allocate(obj, hms.nvm)
        lost, evicted = hms.lose_capacity(hms.nvm, 8 * MIB)
        assert lost == 2 * MIB  # clamped to free space
        assert evicted == []
        assert hms.device_of(obj).name == hms.nvm.name


NVM = nvm_bandwidth_scaled(0.5)


class TestEndToEnd:
    def test_fault_free_summary_has_no_fault_keys(self):
        trace = execute_spec(RunSpec("heat", "tahoe", NVM, fast=True))
        assert trace.faults is None
        assert "faults" not in trace.summary()
        assert "migrations_failed" not in trace.meta.get("manager_stats", {})

    def test_flaky_copies_run_completes_with_accounting(self):
        trace = execute_spec(RunSpec("cg", "tahoe", NVM, fast=True, faults="flaky-copies"))
        trace.validate()
        f = trace.faults
        assert f is not None and f["injected_copy_failures"] >= 1
        assert f["copy_retries"] >= f["recovered_copies"]
        assert f["injected_copy_failures"] == sum(
            1 for e in f["events"] if e["kind"] == "copy-fail"
        )
        stats = trace.meta["manager_stats"]
        assert "migrations_failed" in stats and "migrations_recovered" in stats

    def test_capacity_crunch_evicts_and_completes(self):
        trace = execute_spec(
            RunSpec("heat", "tahoe", NVM, fast=True, faults="capacity-crunch")
        )
        trace.validate()
        f = trace.faults
        assert f["capacity_lost_bytes"] == 128 * MIB
        assert any(e["kind"] == "capacity-loss" for e in f["events"])

    def test_degradation_slows_the_run(self):
        clean = execute_spec(RunSpec("heat", "nvm-only", NVM, fast=True))
        hurt = execute_spec(RunSpec("heat", "nvm-only", NVM, fast=True, faults="brownout"))
        assert hurt.makespan > clean.makespan
        assert hurt.faults["degraded_time_s"] == pytest.approx(hurt.makespan)


class TestCacheKeyNeutrality:
    def test_no_faults_key_when_none(self):
        spec = RunSpec("heat", "tahoe", NVM, fast=True)
        assert "faults" not in spec.to_dict()

    def test_empty_plan_is_the_same_spec(self):
        plain = RunSpec("heat", "tahoe", NVM, fast=True)
        for empty in (None, "none", FaultPlan(), stress_plan(0.0)):
            spec = RunSpec("heat", "tahoe", NVM, fast=True, faults=empty)
            assert spec == plain
            assert spec.cache_key() == plain.cache_key()

    def test_real_plan_changes_key_and_label(self):
        plain = RunSpec("heat", "tahoe", NVM, fast=True)
        faulted = RunSpec("heat", "tahoe", NVM, fast=True, faults="moderate")
        assert faulted.cache_key() != plain.cache_key()
        assert "faults(" in faulted.label() and "faults(" not in plain.label()
        # spec round-trips with the plan intact
        assert RunSpec.from_dict(faulted.to_dict()) == faulted


# ----------------------------------------------------------------------
# Property: any seeded plan -> completes, never faster, deterministic
# ----------------------------------------------------------------------
@st.composite
def fault_plans(draw):
    windows = tuple(
        DegradedWindow(
            device=draw(st.sampled_from(["dram", "nvm"])),
            start_s=draw(st.floats(0.0, 2e-3)),
            end_s=draw(st.floats(3e-3, 1.0)),
            bandwidth_scale=draw(st.floats(0.2, 1.0)),
            latency_scale=draw(st.floats(1.0, 4.0)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    losses = tuple(
        CapacityLoss(
            device="dram",
            at_s=draw(st.floats(0.0, 5e-3)),
            lose_bytes=draw(st.integers(0, 6)) * MIB,
        )
        for _ in range(draw(st.integers(0, 1)))
    )
    return FaultPlan(
        seed=draw(st.integers(0, 2**20)),
        copy_fail_prob=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        copy_fail_every=draw(st.sampled_from([None, 1, 2, 3])),
        windows=windows,
        capacity_losses=losses,
    )


def _run_faulted(plan):
    graph = make_fork_join_graph(width=8, obj_mib=4.0)
    hms = HeterogeneousMemorySystem(dram(8 * MIB), nvm_bandwidth_scaled(0.25, 256 * MIB))
    injector = FaultInjector.for_hms(plan, hms) if plan is not None else None
    trace = Executor(hms, ExecutorConfig(n_workers=3), injector=injector).run(
        graph, DataManagerPolicy()
    )
    trace.validate()
    return trace


def _digest(trace):
    summary = dict(trace.summary())
    # strip nothing: the whole summary (including fault events) must be
    # process- and repetition-stable for cacheability
    return canonical_json(summary)


@settings(max_examples=25, deadline=None)
@given(plan=fault_plans())
def test_faulted_runs_complete_and_never_beat_fault_free(plan):
    baseline = _run_faulted(None).makespan
    trace = _run_faulted(plan)
    assert trace.makespan >= baseline - 1e-12
    if plan.is_empty:
        return
    f = trace.faults
    assert f["failed_migrations"] + f["recovered_copies"] <= f["injected_copy_failures"] or (
        f["injected_copy_failures"] == 0
    )


@settings(max_examples=10, deadline=None)
@given(plan=fault_plans(), seed=st.integers(0, 100))
def test_identical_plan_and_seed_identical_digest(plan, seed):
    plan = plan.replace(seed=seed)
    assert _digest(_run_faulted(plan)) == _digest(_run_faulted(plan))
