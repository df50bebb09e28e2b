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
speed ratios, the benefit estimators its lanes take and the movement
cost as numpy columns over every lane, then ``np.where`` picks per
object — with no per-object loop and no cross-plan memo.  It is the
package's one implementation of the Eq. 1 classes and Eqs. 2–7.  The per-object loop
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

    Each benefit estimator that some lane takes (the time-based one on
    lanes with measured memory seconds under the miss counter, the
    count-based one on the others) and the movement cost are evaluated
    on every lane; ``np.where`` then picks each object's estimator,
    sensitivity class and residency case.  The bandwidth and latency
    laws run as the two rows of ``(2, n)`` arrays, each device's rows
    written against its scalars, so one ufunc call serves both laws
    wherever they share an operation (the DRAM/NVM speed ratios, the
    time gains, the count-law differences and the estimator choice).

    Bitwise contract: every per-object float comes out of the exact
    operation sequence the scalar reference
    (``tests/reference_weigher.py``) performs.  Elementwise float64 ufuncs
    are IEEE-identical to the scalar ops (an in-place ``+=`` or ``*=``
    only swaps the operands of a commutative operation), so the only
    places needing care are the ones where numpy idioms *differ* from
    Python semantics:

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
    n = len(loads)
    # Read and write fractions per object, (1.0, 0.0) where there are no
    # counted accesses.
    total = loads + stores
    frac = np.ones((2, n))
    lf = frac[0]
    np.divide(loads, total, out=lf, where=total > 0)
    np.subtract(1.0, lf, out=frac[1])
    # Each lane takes one of two estimators, for the bandwidth and the
    # latency law at once (the rows of a (2, n) gain); an estimator no
    # lane takes is not evaluated.
    timed = (batch.mem_seconds > 0) & use_miss
    any_timed = bool(timed.any())
    all_timed = any_timed and bool(timed.all())
    # ``times[device]`` (DRAM, NVM) holds each law's time per object,
    # bandwidth in row 0 and latency in row 1, for one estimator at a time.
    times = np.empty((2, 2, n))
    devices = (dram, nvm)

    if any_timed:
        # Time-based estimator: benefit = (NVM-resident memory-active
        # time) x (1 - DRAM/NVM speed ratio).  Exact for both laws
        # regardless of memory-level parallelism, because the measured
        # active time already embeds the overlap the count-based laws
        # cannot see.  Without ``distinguish_rw`` everything is priced
        # at read characteristics.  The bandwidth-bound times come from
        # the datasheet bandwidths; the latency-bound ones from the
        # per-miss loaded latency of the calibration chase runs, with
        # the read/write asymmetry from the datasheet.
        if distinguish:
            lf_t, wf_t = lf, frac[1]
        else:
            lf_t, wf_t = np.ones(n), np.zeros(n)
        chase = calib.chase_latency
        for k, dev in enumerate(devices):
            bw_t, lat_t = times[k, 0], times[k, 1]
            np.divide(lf_t, dev.read_bandwidth, out=bw_t)
            bw_t += wf_t / dev.write_bandwidth
            np.multiply(wf_t, dev.write_latency_s - dev.read_latency_s, out=lat_t)
            lat_t += chase.get(dev.name, dev.read_latency_s)
        # Speed ratios DRAM / NVM time per law, clamped; the latency
        # law's is 1.0 where the NVM time is not positive.
        r = np.ones((2, n))
        where = times[1] > 0
        where[0] = True
        np.divide(times[0], times[1], out=r, where=where)
        np.minimum(r, 1.0, out=r)
        np.maximum(r, 1e-3, out=r)
        # Time gain = NVM-time minus DRAM-time from the measured
        # memory-active seconds; ``dram_frac`` of the active time was
        # observed DRAM-resident and is scaled to its NVM equivalent.
        ms, df = batch.mem_seconds, batch.dram_frac
        nvm_part = ms * (1.0 - df)
        gain = ms * df / r
        gain += nvm_part
        gain *= 1.0 - r
        np.multiply(gain[0], calib.cf_bw, out=gain[0])
        np.multiply(gain[1], calib.cf_lat, out=gain[1])

    if not all_timed:
        # Count-based laws (Eqs. 2-5): the paper's loads/stores-only
        # configuration, corrected by the raw CF factors and the MLP
        # discount on the latency law: the reference's
        # ``benefit_bandwidth`` and ``benefit_latency``, same ops.  With
        # the miss counter, magnitude comes from misses and direction
        # from the load fraction: ``eff`` is the effective (loads,
        # stores).
        eff = batch.misses * frac if use_miss else np.stack((loads, stores))
        eff_bytes = eff * CACHELINE_BYTES
        for k, dev in enumerate(devices):
            bw_t, lat_t = times[k, 0], times[k, 1]
            if distinguish:
                np.divide(eff_bytes[0], dev.read_bandwidth, out=bw_t)
                bw_t += eff_bytes[1] / dev.write_bandwidth
                np.multiply(eff[0], dev.read_latency_s, out=lat_t)
                lat_t += eff[1] * dev.write_latency_s
            else:
                np.divide(eff_bytes[0] + eff_bytes[1], dev.read_bandwidth, out=bw_t)
                np.multiply(eff[0] + eff[1], dev.read_latency_s, out=lat_t)
        # MLP discount: min(1.0, chase / bw_demand), 1.0 where bw_demand
        # <= 0 or there was no chase run (the reference's
        # ``mlp_discount``).  Subnormal bw demands overflow the ratio to
        # inf — harmless, the clamp takes 1.0 exactly as the scalar does.
        chase_bw = calib.chase_bandwidth
        discount = np.ones_like(bw_d)
        if chase_bw > 0:
            with np.errstate(over="ignore"):
                np.divide(chase_bw, bw_d, out=discount, where=bw_d > 0)
            np.minimum(discount, 1.0, out=discount)
        count = times[1] - times[0]
        np.multiply(count[0], calib.bandwidth_factor(False), out=count[0])
        np.multiply(count[1], calib.latency_factor(False) * discount, out=count[1])
        gain = np.where(timed, gain, count) if any_timed else count

    bw_gain, lat_gain = gain[0], gain[1]
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
