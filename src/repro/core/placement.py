"""Placement planning: weigh objects, solve the knapsack, compare scopes.

Two planning scopes, as in the paper:

- **Global (cross-run) search**: demands are projected over *all*
  remaining tasks; one knapsack; at most one migration per object for the
  rest of the run.  Minimal movement, but one placement must serve every
  phase.
- **Window-local search**: demands over the next lookahead window only;
  re-decided as the window slides.  Adapts to shifting hot sets at the
  price of more migrations, each hopefully hidden in its overlap window.

One :func:`make_plan` call weighs every scope of a replan and returns a
:class:`PlacementPlan` per scope, each with a predicted net gain
(benefit - migration cost - eviction pressure) so the manager can pick
the better scope, per the paper's "choose the best of the two searches".

The weigher is straight-line column arithmetic: :func:`_weights_for`
computes Eq. 7 for a whole :class:`~repro.core.demand.DemandBatch` —
speed ratios, both benefit estimators and the movement cost as numpy
columns over every lane, then ``np.where`` picks per object — with no
per-object loop and no cross-plan memo.  It is the package's one
implementation of the Eq. 1 classes and Eqs. 2–7.  The per-object loop
it replaced survives, with its scalar benefit and cost helpers, in
``tests/reference_weigher.py``, the independent differential reference
that pins the column path bitwise (see ``tests/test_placement_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Sequence

import numpy as np

from repro.core.demand import DemandBatch
from repro.core.knapsack import greedy_by_density, solve_knapsack_arrays
from repro.core.sensitivity import T1, T2
from repro.memory.device import MemoryDevice
from repro.memory.migration import copy_time
from repro.profiling.calibration import CalibrationResult
from repro.util.units import CACHELINE_BYTES
from repro.util.validation import require

__all__ = ["PlanConfig", "PlacementPlan", "make_plan"]

#: Fraction of DRAM the planner may fill (headroom for in-flight moves).
CAPACITY_FRACTION = 0.95
#: Hysteresis: a migration must promise more than ``COST_MARGIN`` times
#: its cost before it is worth the churn (the weigher and the manager's
#: enforcement both charge it).
COST_MARGIN = 1.5


@dataclass(frozen=True)
class PlanConfig:
    """Model knobs shared by both planning scopes (the ablation switches;
    the fixed model constants are module constants)."""

    distinguish_rw: bool = True
    solver: str = "dp"  #: "dp" (knapsack DP) or "greedy" (density ablation)
    #: Combine the LLC-miss counter with the load/store counters (magnitude
    #: from misses, direction from loads/stores).  False reproduces the
    #: paper's loads/stores-only configuration, whose cache-blind counts
    #: overprice cache-friendly objects (E9 ablation).
    use_miss_counter: bool = True
    #: Scale benefits by the horizon's parallel slack (tasks per worker per
    #: dependence level): in a wave-limited region (one task per worker per
    #: level, e.g. MG's eight parallel smooths on eight workers) speeding a
    #: subset of siblings does not shorten the makespan, so the additive
    #: benefit model must be discounted.
    use_parallel_slack: bool = True


@dataclass(eq=False)
class PlacementPlan:
    """One scope's chosen DRAM resident set and its predicted net gain,
    as columns over the lanes of the batch it weighed.

    The uid-keyed views (``dram_set``, ``weight_of``, ``first_use_of``)
    are built on first read, so only the plan a replan enforces pays
    for them."""

    scope: str
    uid: np.ndarray
    weights: np.ndarray
    #: Seconds until each lane's first use (for lane-aware enforcement).
    first_use: np.ndarray
    #: The knapsack's keep-mask over the lanes.
    keep: list[bool]
    predicted_gain: float

    @cached_property
    def dram_set(self) -> set[int]:
        # The kept uids enter the set in lane order, as one add per kept
        # object would, so its iteration order is fixed by the batch.
        return set(compress(self.uid.tolist(), self.keep))

    @cached_property
    def weight_of(self) -> dict[int, float]:
        return dict(zip(self.uid.tolist(), self.weights.tolist()))

    @cached_property
    def first_use_of(self) -> dict[int, float]:
        return dict(zip(self.uid.tolist(), self.first_use.tolist()))


def _weights_for(
    batch: DemandBatch,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    calib: CalibrationResult,
    cfg: PlanConfig,
    dram_pressure: float,
    benefit_scale: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Eq. 7 over a whole demand batch — the planner's hot loop, as
    straight-line column arithmetic.

    Eq. 7: w = BFT - COST - extra_COST per object.  Objects already
    DRAM-resident pay no movement cost (keeping them is free); incoming
    objects pay the non-overlapped part of their copy, plus — when DRAM
    is nearly full (``dram_pressure`` ~ 1) — the eviction of an equal
    volume of victims.  Both copies carry the fixed per-migration
    overhead the enforcement path charges (inside :func:`copy_time`).
    ``benefit_scale`` is one factor or a column of one per lane; either
    way each lane's benefit is multiplied by its factor once.

    Both benefit estimators and the movement cost are evaluated on every
    lane; ``np.where`` then picks each object's estimator, sensitivity
    class and residency case.

    Bitwise contract: every per-object float comes out of the exact
    operation sequence the scalar reference
    (``tests/reference_weigher.py``) performs.  Elementwise float64 ufuncs
    are IEEE-identical to the scalar ops, so the only places needing care
    are the ones where numpy idioms *differ* from Python semantics:

    - ``max(a, b)`` is ``a if a >= b else b`` — emulated with
      ``np.where(b > a, b, a)`` (``np.maximum`` differs on signed
      zeros); the speed-ratio clamps may use ``np.minimum``/``np.maximum``
      because their bounds are nonzero constants and no NaN reaches them;
    - guarded divisions use ``np.divide(..., out=..., where=...)`` so
      masked-out lanes never divide;
    - no reductions are reassociated (the plan gain stays a
      left-to-right Python accumulation in :func:`make_plan`).
    """
    in_dram = batch.in_dram
    require(in_dram is not None, "batch has no placement columns; "
            "attach them with DemandBatch.with_placement")
    loads, stores, bw_d = batch.loads, batch.stores, batch.bw_demand
    distinguish = cfg.distinguish_rw
    use_miss = cfg.use_miss_counter
    # Read fraction per object, 1.0 where there are no counted accesses.
    total = loads + stores
    lf = np.ones_like(total)
    np.divide(loads, total, out=lf, where=total > 0)
    timed = (batch.mem_seconds > 0) & use_miss

    # Time-based estimator: benefit = (NVM-resident memory-active time) x
    # (1 - DRAM/NVM speed ratio).  Exact for both laws regardless of
    # memory-level parallelism, because the measured active time already
    # embeds the overlap the count-based laws cannot see.  Without
    # ``distinguish_rw`` everything is priced at read characteristics.
    lf_t = lf if distinguish else np.ones_like(lf)
    wf_t = 1.0 - lf_t
    # Bandwidth-bound speed ratio from the datasheet bandwidths.
    t_dram = lf_t / dram.read_bandwidth + wf_t / dram.write_bandwidth
    t_nvm = lf_t / nvm.read_bandwidth + wf_t / nvm.write_bandwidth
    r_bw = np.maximum(np.minimum(t_dram / t_nvm, 1.0), 1e-3)
    # Latency-bound speed ratio: per-miss loaded latency from the
    # calibration chase runs, read/write asymmetry from the datasheet;
    # 1.0 where the NVM time is not positive.
    chase = calib.chase_latency
    t_dram = chase.get(dram.name, dram.read_latency_s) + wf_t * (
        dram.write_latency_s - dram.read_latency_s
    )
    t_nvm = chase.get(nvm.name, nvm.read_latency_s) + wf_t * (
        nvm.write_latency_s - nvm.read_latency_s
    )
    r_lat = np.ones_like(t_nvm)
    np.divide(t_dram, t_nvm, out=r_lat, where=t_nvm > 0)
    r_lat = np.maximum(np.minimum(r_lat, 1.0), 1e-3)
    # Time gain = NVM-time minus DRAM-time from the measured memory-active
    # seconds; ``dram_frac`` of the active time was observed DRAM-resident
    # and is scaled to its NVM equivalent.
    ms, df = batch.mem_seconds, batch.dram_frac
    nvm_part = ms * (1.0 - df)
    dram_part = ms * df
    bw_time = ((nvm_part + dram_part / r_bw) * (1.0 - r_bw)) * calib.cf_bw
    lat_time = ((nvm_part + dram_part / r_lat) * (1.0 - r_lat)) * calib.cf_lat

    # Count-based laws (Eqs. 2-5): the paper's loads/stores-only
    # configuration, corrected by the raw CF factors and the MLP discount
    # on the latency law.  With the miss counter, magnitude comes from
    # misses and direction from the load fraction.
    if use_miss:
        eff_loads = batch.misses * lf
        eff_stores = batch.misses * (1.0 - lf)
    else:
        eff_loads, eff_stores = loads, stores
    # MLP discount: min(1.0, chase / bw_demand), 1.0 where bw_demand <= 0
    # or there was no chase run (the reference's ``mlp_discount``).
    # Subnormal bw demands overflow the ratio to inf — harmless, the
    # clamp takes 1.0 exactly as the scalar does.
    chase_bw = calib.chase_bandwidth
    discount = np.ones_like(bw_d)
    with np.errstate(over="ignore"):
        np.divide(chase_bw, bw_d, out=discount, where=(bw_d > 0) & (chase_bw > 0))
    np.minimum(discount, 1.0, out=discount)
    # Eqs. 2/4 and 3/5 elementwise: the reference's ``benefit_bandwidth``
    # and ``benefit_latency``, same ops.
    lb = eff_loads * CACHELINE_BYTES
    sb = eff_stores * CACHELINE_BYTES
    if distinguish:
        t_nvm = lb / nvm.read_bandwidth + sb / nvm.write_bandwidth
        t_dram = lb / dram.read_bandwidth + sb / dram.write_bandwidth
    else:
        t_nvm = (lb + sb) / nvm.read_bandwidth
        t_dram = (lb + sb) / dram.read_bandwidth
    bw_count = (t_nvm - t_dram) * calib.bandwidth_factor(False)
    if distinguish:
        t_nvm = eff_loads * nvm.read_latency_s + eff_stores * nvm.write_latency_s
        t_dram = eff_loads * dram.read_latency_s + eff_stores * dram.write_latency_s
    else:
        t_nvm = (eff_loads + eff_stores) * nvm.read_latency_s
        t_dram = (eff_loads + eff_stores) * dram.read_latency_s
    lat_count = (t_nvm - t_dram) * (calib.latency_factor(False) * discount)

    bw_gain = np.where(timed, bw_time, bw_count)
    lat_gain = np.where(timed, lat_time, lat_count)
    # Eq. 1 sensitivity classes as comparisons against the threshold
    # products (bandwidth at >= T1 x peak, latency at <= T2 x peak);
    # mixed objects take max(bw, lat) with Python max semantics
    # (np.where, not np.maximum — signed zeros).
    peak = calib.peak_of(nvm)
    mixed = np.where(lat_gain > bw_gain, lat_gain, bw_gain)
    bft = np.where(
        bw_d >= T1 * peak, bw_gain, np.where(bw_d <= T2 * peak, lat_gain, mixed)
    )
    # ``bft`` is fresh out of np.where, so the scalings run in place.
    # Confidence damps the benefit of types whose instances vary.
    bft *= benefit_scale
    bft *= batch.confidence

    # Movement cost (Eq. 6) for incoming objects: the non-overlapped part
    # of the copy, max(copy - max(offset, 0), 0), plus — when DRAM is
    # nearly full — the eviction of an equal volume of victims (Eq. 7's
    # extra_COST), i.e. the reverse copy: the reference's
    # ``eviction_cost([size], dram, nvm)``.
    size = batch.size_bytes
    off = batch.first_use_offset
    diff = copy_time(size, nvm, dram) - np.where(off >= 0.0, off, 0.0)
    cost = np.where(diff >= 0.0, diff, 0.0)
    extra = 0.0
    if dram_pressure > 0.0:
        extra = dram_pressure * copy_time(size, dram, nvm)
    # Resident objects pay nothing: keeping them is free.
    return np.where(in_dram, bft, bft - COST_MARGIN * (cost + extra))


def make_plan(
    scopes: Sequence[tuple[str, DemandBatch, float]],
    dram_capacity_bytes: int,
    dram_used_bytes: int,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    calib: CalibrationResult,
    cfg: PlanConfig,
) -> list[PlacementPlan]:
    """Weigh every scope's demands and solve each scope's
    capacity-constrained selection; one plan per scope, in order.

    Each scope is ``(name, demands, benefit_scale)``, ``demands`` a
    :class:`~repro.core.demand.DemandBatch` with placement columns
    attached (:meth:`DemandBatch.with_placement`).  The scopes' batches
    are stacked and weighed in one :func:`_weights_for` call, with each
    scope's ``benefit_scale`` repeated over its lanes; the weigher is
    elementwise, so every lane gets the weight a call on its own scope
    would give it.  Each scope's knapsack then runs on its own slice.
    """
    budget = int(dram_capacity_bytes * CAPACITY_FRACTION)
    pressure = max(0.0, min(1.0, dram_used_bytes / max(1, budget)))
    batches = [demands for _, demands, _ in scopes]
    lanes = [len(demands) for demands in batches]
    weights = _weights_for(
        DemandBatch.stack(batches), nvm, dram, calib, cfg, pressure,
        np.repeat([scale for _, _, scale in scopes], lanes),
    )
    plans = []
    lo = 0
    for (scope, demands, _), n in zip(scopes, lanes):
        w = weights[lo : lo + n]
        lo += n
        if cfg.solver == "greedy":
            mask = greedy_by_density(w, demands.size_bytes, budget)
        else:
            mask = solve_knapsack_arrays(w, demands.size_bytes, budget)
        # The gain is a left-to-right float sum (not ``sum``, which
        # compensates on Python 3.12).
        gain = 0.0
        for x in compress(w.tolist(), mask):
            gain += x
        plans.append(
            PlacementPlan(scope, demands.uid, w, demands.first_use_offset, mask, gain)
        )
    return plans
