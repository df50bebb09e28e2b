"""Eq. 1 sensitivity classes, the Eq. 2–7 benefit and cost models, and
type models — each checked on the code the data manager runs: the column
weigher (:func:`repro.core.placement._weights_for`), the demand
projection and ``DataManagerPolicy.after_task``."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.adaptation import MIN_ITERATIONS, DeviationDetector
from repro.core.demand import DemandProjection, scan_frontier
from repro.core.manager import DataManagerPolicy
from repro.core.models import SlotStats, TypeModel
from repro.core.placement import COST_MARGIN, PlanConfig, _weights_for
from repro.core.sensitivity import T1, T2, object_bandwidth
from repro.memory.migration import copy_time
from repro.memory.presets import (
    dram,
    numa_emulated,
    nvm_bandwidth_scaled,
    nvm_latency_scaled,
    optane_pm,
)
from repro.profiling.calibration import CalibrationResult
from repro.profiling.sampler import ObjectSample, SamplingProfiler
from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import read_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.helpers import DEMAND_DEFAULTS, demand_batch
from tests.reference_executor import placed_times
from tests.reference_weigher import eviction_cost

#: The NVM peak bandwidth of :func:`calib_for` calibrations (bytes/s).
PEAK = 1e10
DEFAULT_PLAN = PlanConfig()
#: Count-based lanes: the paper's loads/stores-only configuration.
RAW_COUNTS = PlanConfig(use_miss_counter=False)


def calib_for(nvm, cf: float = 1.0) -> CalibrationResult:
    """A calibration with every CF factor ``cf``, no chase runs (so no
    MLP discount) and a round NVM peak."""
    return CalibrationResult(
        cf_bw=cf,
        cf_lat=cf,
        cf_bw_raw=cf,
        cf_lat_raw=cf,
        peak_bandwidth={nvm.name: PEAK},
        chase_bandwidth=0.0,
        chase_latency={},
    )


def weigh(nvm, dram_dev, *objects, cfg=DEFAULT_PLAN, calib=None, pressure=0.0):
    """Eq. 7 weights of ``objects`` (dicts of demand columns; 1 MiB and
    the :data:`DEMAND_DEFAULTS` where omitted), as the planner computes
    them."""
    defaults = {"size_bytes": int(MIB), **DEMAND_DEFAULTS}
    names = {"size_bytes"}.union(*objects)
    batch = demand_batch(**{k: [o.get(k, defaults[k]) for o in objects] for k in names})
    calib = calib_for(nvm) if calib is None else calib
    return _weights_for(batch, nvm, dram_dev, calib, cfg, pressure).tolist()


class TestSensitivity:
    def test_thresholds(self):
        """Demand at or above T1 x peak prices the bandwidth law, at or
        below T2 x peak the latency law, in between the larger one."""
        n, d = numa_emulated(), dram()
        # A timed, read-only, resident lane: the class picks between
        # ms x (1 - r) for the bandwidth and the latency speed ratio r.
        obj = dict(loads=1.0, mem_seconds=1.0, in_dram=True)
        bw_cls, at_t1, mixed, at_t2, lat_cls = weigh(
            n, d, *(dict(obj, bw_demand=f * PEAK) for f in (0.9, T1, 0.5, T2, 0.05))
        )
        assert bw_cls == at_t1 == pytest.approx(1.0 - n.read_bandwidth / d.read_bandwidth)
        assert lat_cls == at_t2 == pytest.approx(1.0 - d.read_latency_s / n.read_latency_s)
        assert bw_cls != lat_cls
        assert mixed == max(bw_cls, lat_cls)

    def test_object_bandwidth(self):
        s = ObjectSample(loads=0, stores=0, misses=1000, active_fraction=0.5)
        # 1000 misses x 64 B over 0.5 x 1 s
        assert object_bandwidth(s, 1.0) == pytest.approx(1000 * 64 / 0.5)


class TestBenefitModels:
    """Count-based benefit laws (Eqs. 2–5) on resident objects, whose
    weight is the benefit alone."""

    BW = dict(bw_demand=PEAK, in_dram=True)  # bandwidth class
    LAT = dict(bw_demand=0.0, in_dram=True)  # latency class

    def test_bandwidth_benefit_positive_on_slower_nvm(self):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        (w,) = weigh(n, d, dict(self.BW, loads=10_000, stores=5_000), cfg=RAW_COUNTS)
        assert w > 0

    def test_bandwidth_benefit_zero_when_equal(self):
        d = dram()
        n = d.scaled(name="same", kind=d.kind)
        (w,) = weigh(n, d, dict(self.BW, loads=1000, stores=1000), cfg=RAW_COUNTS)
        assert w == pytest.approx(0.0)

    def test_latency_benefit_scales_with_multiplier(self):
        d = dram()
        obj = dict(self.LAT, loads=1000)
        (b4,) = weigh(nvm_latency_scaled(4.0), d, obj, cfg=RAW_COUNTS)
        (b8,) = weigh(nvm_latency_scaled(8.0), d, obj, cfg=RAW_COUNTS)
        assert b8 == pytest.approx(b4 * 7 / 3, rel=0.01)  # (8-1)/(4-1)

    def test_rw_distinction_matters_on_optane(self):
        """Optane writes are 3x slower than reads: a write-heavy object's
        benefit is underestimated without the distinction."""
        d, o = dram(), optane_pm()
        obj = dict(self.BW, loads=1000, stores=100_000)
        (with_rw,) = weigh(o, d, obj, cfg=RAW_COUNTS)
        (without,) = weigh(
            o, d, obj, cfg=PlanConfig(distinguish_rw=False, use_miss_counter=False)
        )
        assert with_rw > 1.5 * without

    def test_movement_benefit_dispatches_on_class(self):
        d, n = dram(), numa_emulated()
        obj = dict(self.BW, loads=10_000)
        bw, lat, mixed = weigh(
            n, d, *(dict(obj, bw_demand=f * PEAK) for f in (0.9, 0.05, 0.5)),
            cfg=RAW_COUNTS,
        )
        assert bw != lat
        assert mixed == max(bw, lat)

    def test_mlp_discount_shrinks_latency_law(self):
        """Demand above the single-stream chase rate discounts the
        latency law by chase / demand; demand below it does not."""
        d, n = dram(), nvm_latency_scaled(4.0)
        calib = replace(calib_for(n), chase_bandwidth=1e8)
        below, above = weigh(
            n, d, *(dict(self.LAT, loads=1000, bw_demand=bw) for bw in (5e7, 4e8)),
            cfg=RAW_COUNTS, calib=calib,
        )
        (undiscounted,) = weigh(n, d, dict(self.LAT, loads=1000), cfg=RAW_COUNTS)
        assert below == undiscounted > 0
        assert above == pytest.approx(0.25 * below)

    def test_cf_factor_scales(self):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        obj = dict(self.BW, loads=1000)
        (one,) = weigh(n, d, obj, cfg=RAW_COUNTS)
        (two,) = weigh(n, d, obj, cfg=RAW_COUNTS, calib=calib_for(n, cf=2.0))
        assert two == pytest.approx(2 * one)


class TestCostModels:
    """Movement cost (Eq. 6) and eviction cost (Eq. 7): what an incoming
    object's weight loses against the same object resident."""

    OBJ = dict(loads=10_000, stores=1_000, misses=8_000, bw_demand=PEAK)

    def test_migration_cost_fully_overlapped_is_zero(self):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        resident, hidden = weigh(
            n, d, dict(self.OBJ, in_dram=True), dict(self.OBJ, first_use_offset=10.0)
        )
        assert hidden == resident

    def test_migration_cost_no_overlap_equals_copy(self):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        resident, incoming = weigh(n, d, dict(self.OBJ, in_dram=True), self.OBJ)
        assert resident - incoming == pytest.approx(
            COST_MARGIN * copy_time(int(MIB), n, d)
        )

    def test_eviction_cost_sums_victims(self):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        # The reference's extra_COST sums its victims' copies ...
        one = eviction_cost([int(MIB)], d, n)
        two = eviction_cost([int(MIB), int(MIB)], d, n)
        assert two == pytest.approx(2 * one, rel=0.01)
        # ... and the planner charges a full DRAM one equal-size victim.
        (empty,) = weigh(n, d, self.OBJ)
        (full,) = weigh(n, d, self.OBJ, pressure=1.0)
        assert empty - full == pytest.approx(COST_MARGIN * one)


class TestTypeModel:
    def _profile(self, seed=0):
        a = DataObject(name="a", size_bytes=int(4 * MIB))
        b = DataObject(name="b", size_bytes=int(4 * MIB))
        t = Task(
            name="k",
            type_name="k",
            accesses={a: read_footprint(a.size_bytes), b: write_footprint(b.size_bytes)},
            compute_time=1e-4,
        )
        d = dram(int(64 * MIB))
        mem_times, on_dram = placed_times(t, d)
        dur = sum(mem_times) + t.compute_time
        return SamplingProfiler(seed=seed).sample_task(t, dur, mem_times, on_dram), dur

    def test_observe_builds_slots(self):
        m = TypeModel("k")
        p, dur = self._profile()
        m.observe(p)
        assert m.ready and m.n_profiles == 1
        assert len(m.slots) == 2
        assert m.mean_duration == pytest.approx(dur)
        assert m.slots[0].loads > 0 and m.slots[1].stores > 0

    def test_slot_fallback_for_extra_arity(self):
        """The demand projection gives a task's extra accesses the type's
        last slot, and every access of a slot-less model an empty one."""
        m = TypeModel("k")
        p, _ = self._profile()
        m.observe(p)
        empty = TypeModel("empty", n_profiles=1)  # ready, no slots
        objs = [DataObject(name=f"o{i}", size_bytes=int(MIB)) for i in range(4)]
        g = TaskGraph()
        g.add(Task(name="wide", type_name="k",
                   accesses={o: read_footprint(o.size_bytes) for o in objs[:3]}))
        g.add(Task(name="bare", type_name="empty",
                   accesses={objs[3]: read_footprint(objs[3].size_bytes)}))
        core, every = g.exec_core(), np.arange(2)
        front = scan_frontier(core, every, 2, np.ones(2), 1)
        models = [{"k": m, "empty": empty}[name] for name in core.type_names]
        _, (batch, _, _) = DemandProjection().project(core, front, models, True)
        rows = dict(zip(batch.uid.tolist(), zip(batch.loads.tolist(), batch.stores.tolist())))
        last, first = m.slots[-1], m.slots[0]
        assert rows[objs[2].uid] == (last.loads, last.stores)
        assert rows[objs[2].uid] != (first.loads, first.stores)
        assert rows[objs[3].uid] == (0.0, 0.0)

    def test_means_average_multiple_profiles(self):
        m = TypeModel("k")
        for seed in range(4):
            p, _ = self._profile(seed)
            m.observe(p)
        assert m.n_profiles == 4
        assert m.slots[0].n == 4

    def test_confidence_high_for_stable_slots(self):
        m = TypeModel("k")
        for seed in range(4):
            p, _ = self._profile(seed)
            m.observe(p)
        assert m.slots[0].confidence > 0.9

    def test_confidence_low_for_erratic_slots(self):
        s = SlotStats()
        for misses in (100.0, 100_000.0, 50.0, 80_000.0):
            s.update(0, 0, misses, 0.1, 1e9)
        assert s.confidence < 0.6

    def test_effective_counts_miss_vs_raw(self):
        """With the miss counter the count laws price the misses, split
        by the load fraction; without it, the raw loads and stores."""
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        obj = dict(loads=800, stores=200, misses=100, bw_demand=PEAK, in_dram=True)
        (miss,) = weigh(n, d, obj)
        (split,) = weigh(n, d, dict(obj, loads=80, stores=20), cfg=RAW_COUNTS)
        (raw,) = weigh(n, d, obj, cfg=RAW_COUNTS)
        assert miss == pytest.approx(split)
        assert raw == pytest.approx(10 * miss)

    def test_track_duration_ewma(self):
        """Past profiling, ``after_task`` folds each duration into the
        type's fast EWMA: the first seeds it, later ones move it 0.3 of
        the way."""
        policy = DataManagerPolicy()
        m = policy._models["k"] = TypeModel("k", n_profiles=2)
        o = DataObject(name="o", size_bytes=int(MIB))
        task = Task(name="k0", type_name="k", accesses={o: read_footprint(o.size_bytes)})
        for duration in (1.0, 2.0):
            policy.after_task(task, duration, ctx=None)
        assert m.recent_duration == pytest.approx(1.3)
        assert m.n_instances == 2


class TestObjectStats:
    """Per-object demand as the projection folds it over a horizon."""

    def test_accumulation(self):
        o = DataObject(name="o", size_bytes=100)
        g = TaskGraph()
        for t in ("a", "b"):
            g.add(Task(name=t, type_name=t, accesses={o: read_footprint(100)}))
        # Slot a: confidence 1 (one profile); slot b: miss variance 64
        # over mean 8, so confidence 1 / (1 + 64 / 8**2) = 0.5.
        a = SlotStats(loads=10, stores=5, misses=8, bw_demand=1e9, mem_seconds=0.1)
        b = SlotStats(loads=10, stores=5, misses=8, bw_demand=2e9, mem_seconds=0.3,
                      dram_frac=1.0, n=2, _m2_misses=64.0)
        by_type = {
            "a": TypeModel("a", slots=[a], n_profiles=1),
            "b": TypeModel("b", slots=[b], n_profiles=1),
        }
        core, every = g.exec_core(), np.arange(2)
        models = [by_type[name] for name in core.type_names]
        front = scan_frontier(core, every, 2, np.ones(2), 1)
        _, (st, _, _) = DemandProjection().project(core, front, models, True)
        assert st.loads.tolist() == [20.0] and st.misses.tolist() == [16.0]
        assert st.bw_demand.tolist() == [2e9]  # max
        assert st.mem_seconds[0] == pytest.approx(0.4)
        assert st.dram_frac[0] == pytest.approx(0.75)  # weighted by mem_seconds
        assert st.confidence[0] == pytest.approx(0.75)  # weighted by misses


class TestDeviationDetector:
    def _feed_iterations(self, det, means, per_iter=4, type_name="t"):
        fired = []
        for it, mean in enumerate(means):
            for _ in range(per_iter):
                fired.append(det.observe(type_name, mean, iteration=it))
        return fired

    def test_no_trigger_on_stable_iterations(self):
        det = DeviationDetector()
        fired = self._feed_iterations(det, [1.0] * 12)
        assert not any(fired)

    def test_no_trigger_on_noisy_but_centered(self):
        det = DeviationDetector()
        fired = self._feed_iterations(det, [0.9, 1.1, 1.0, 0.95, 1.05] * 3)
        assert not any(fired)

    def test_trigger_on_step_change(self):
        det = DeviationDetector()
        fired = self._feed_iterations(det, [1.0] * 6 + [2.0] * 4)
        assert any(fired)

    def test_bimodal_instances_within_iteration_do_not_trigger(self):
        """Placement bimodality: fast and slow instances inside each
        iteration must average out."""
        det = DeviationDetector()
        fired = []
        for it in range(12):
            for dur in (0.5, 1.5, 0.5, 1.5):  # same mix every iteration
                fired.append(det.observe("t", dur, iteration=it))
        assert not any(fired)

    def test_needs_min_iterations_of_baseline(self):
        assert MIN_ITERATIONS == 3
        det = DeviationDetector()
        fired = self._feed_iterations(det, [1.0, 5.0, 1.0])
        assert not any(fired)

    def test_trigger_rebaselines(self):
        det = DeviationDetector()
        means = [1.0] * 5 + [3.0] * 8
        fired = self._feed_iterations(det, means)
        assert sum(fired) == 1  # baseline cleared; new regime re-baselines

    def test_alternating_regimes_trigger_after_a_full_baseline(self):
        """A trigger clears the baseline, so the next one needs
        MIN_ITERATIONS closed iterations first: triggers land at least
        MIN_ITERATIONS + 1 iteration boundaries apart, however fast the
        regime flips."""
        for block in range(1, 7):
            det = DeviationDetector()
            means = [1.0] * 5 + ([3.0] * block + [1.0] * block) * 6
            per_iter = 4
            fired = self._feed_iterations(det, means, per_iter=per_iter)
            at = [i // per_iter for i, f in enumerate(fired) if f]
            assert at, block
            gaps = [b - a for a, b in zip(at, at[1:])]
            assert all(g >= MIN_ITERATIONS + 1 for g in gaps), (block, at)

    def test_non_iterative_tasks_never_trigger(self):
        det = DeviationDetector()
        fired = [det.observe("t", d, iteration=-1) for d in [1.0] * 6 + [9.0] * 6]
        assert not any(fired)

    def test_types_independent(self):
        det = DeviationDetector()
        self._feed_iterations(det, [1.0] * 8, type_name="a")
        fired = self._feed_iterations(det, [5.0] * 2, type_name="b")
        assert not any(fired)
