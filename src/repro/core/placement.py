"""Placement planning: weigh objects, solve the knapsack, compare scopes.

Two planning scopes, as in the paper:

- **Global (cross-run) search**: demands are projected over *all*
  remaining tasks; one knapsack; at most one migration per object for the
  rest of the run.  Minimal movement, but one placement must serve every
  phase.
- **Window-local search**: demands over the next lookahead window only;
  re-decided as the window slides.  Adapts to shifting hot sets at the
  price of more migrations, each hopefully hidden in its overlap window.

Both produce a :class:`PlacementPlan` with a predicted net gain
(benefit - migration cost - eviction pressure) so the manager can pick
the better scope, per the paper's "choose the best of the two searches".

The weigher is array-shaped: :func:`_weights_for` computes Eq. 7 for a
whole :class:`~repro.core.demand.DemandBatch` with numpy column
arithmetic, mirroring the executor-core rebuild of PR 6.  The retired
per-object loop survives verbatim in ``tests/reference_weigher.py``, the
differential reference that pins the vector path bitwise (see
``tests/test_placement_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import eviction_cost
from repro.core.demand import DemandBatch
from repro.core.knapsack import greedy_by_density, solve_knapsack_arrays
from repro.core.models import ObjectStats
from repro.core.sensitivity import T1, T2
from repro.memory.device import MemoryDevice
from repro.memory.migration import DEFAULT_MIGRATION_OVERHEAD_S, copy_time
from repro.profiling.calibration import CalibrationResult
from repro.util.lru import BoundedLRU
from repro.util.units import CACHELINE_BYTES
from repro.util.validation import require

__all__ = ["PlanConfig", "ObjectDemand", "PlacementPlan", "make_plan"]

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


@dataclass(slots=True)
class ObjectDemand:
    """One object's projected demand over the planning horizon."""

    stats: ObjectStats
    in_dram: bool
    #: seconds from now until the object's first use (overlap window).
    first_use_offset: float = 0.0


@dataclass
class PlacementPlan:
    """The chosen DRAM resident set and its predicted net gain."""

    scope: str
    dram_set: set[int] = field(default_factory=set)
    predicted_gain: float = 0.0
    weights: dict[int, float] = field(default_factory=dict)
    #: Seconds until each object's first use (for lane-aware enforcement).
    first_use: dict[int, float] = field(default_factory=dict)


def _speed_ratio_bw(lf: float, dram: MemoryDevice, nvm: MemoryDevice) -> float:
    """r = DRAM time / NVM time for bandwidth-bound traffic with read
    share ``lf`` (datasheet bandwidths, direction-weighted)."""
    t_dram = lf / dram.read_bandwidth + (1.0 - lf) / dram.write_bandwidth
    t_nvm = lf / nvm.read_bandwidth + (1.0 - lf) / nvm.write_bandwidth
    return max(1e-3, min(1.0, t_dram / t_nvm))


def _speed_ratio_lat(
    lf: float, dram: MemoryDevice, nvm: MemoryDevice, calib: CalibrationResult
) -> float:
    """r = DRAM time / NVM time for latency-bound traffic.

    Per-miss loaded latency comes from the calibration chase runs (which
    capture the platform's fixed miss cost); the read/write asymmetry is
    layered on from the datasheet latencies.
    """
    base_d = calib.chase_latency.get(dram.name, dram.read_latency_s)
    base_n = calib.chase_latency.get(nvm.name, nvm.read_latency_s)
    t_dram = base_d + (1.0 - lf) * (dram.write_latency_s - dram.read_latency_s)
    t_nvm = base_n + (1.0 - lf) * (nvm.write_latency_s - nvm.read_latency_s)
    if t_nvm <= 0:
        return 1.0
    return max(1e-3, min(1.0, t_dram / t_nvm))


def object_weight(
    demand: ObjectDemand,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    calib: CalibrationResult,
    cfg: PlanConfig,
    dram_pressure: float,
    benefit_scale: float = 1.0,
) -> float:
    """Eq. 7: w = BFT - COST - extra_COST for one object.

    Objects already DRAM-resident pay no movement cost (keeping them is
    free); incoming objects pay the non-overlapped part of their copy,
    plus — when DRAM is nearly full (``dram_pressure`` ~ 1) — the eviction
    of an equal volume of victims.
    """
    batch = DemandBatch.from_demands([demand])
    return float(
        _weights_for(batch, nvm, dram, calib, cfg, dram_pressure, benefit_scale)[0]
    )


def _lf_column(loads: np.ndarray, stores: np.ndarray) -> np.ndarray:
    """Read fraction per object: ``loads / (loads + stores)``, 1.0 when
    the object has no counted accesses (same guard as the scalar form)."""
    total = loads + stores
    lf = np.ones_like(total)
    np.divide(loads, total, out=lf, where=total > 0)
    return lf


# Per-value memos shared across plans: the speed ratios are functions of
# the load fraction alone once the devices (and the chase-latency bases)
# are fixed, and the cost terms of the size alone once the devices are.
# Values recur heavily across replans — partitioned objects share a
# handful of sizes, and per-object load fractions are ratios of
# proportionally-growing sums — so a module-level dict per machine key
# replaces a per-call ``np.unique`` sort + gather.  The cached scalars
# come from the exact scalar helpers the reference loop memoizes, so the
# gathered columns stay bitwise identical.
_MEMO_KEYS_MAX = 64
_MEMO_VALUES_MAX = 65536
_RATIO_MEMOS: BoundedLRU[tuple, dict[float, tuple[float, float]]] = BoundedLRU(_MEMO_KEYS_MAX)
_COST_MEMOS: BoundedLRU[tuple, dict[float, tuple[float, float]]] = BoundedLRU(_MEMO_KEYS_MAX)


def _per_value_memo(
    memos: BoundedLRU[tuple, dict[float, tuple[float, float]]], key: tuple
) -> dict[float, tuple[float, float]]:
    m = memos.get(key, dict)
    if len(m) >= _MEMO_VALUES_MAX:
        m.clear()
    return m


def _weights_for(
    batch: DemandBatch,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    calib: CalibrationResult,
    cfg: PlanConfig,
    dram_pressure: float,
    benefit_scale: float = 1.0,
) -> np.ndarray:
    """Eq. 7 over a whole demand batch — the planner's hot loop, as
    column arithmetic.

    Bitwise contract: every per-object float comes out of the exact
    operation sequence the scalar reference
    (``tests/reference_weigher.py``) performs.  Elementwise float64 ufuncs are IEEE-identical to the
    scalar ops, so the only places needing care are the ones where numpy
    idioms *differ* from Python semantics:

    - ``max(a, b)`` is ``a if a >= b else b`` — emulated with
      ``np.where(b > a, b, a)`` (``np.maximum`` differs on signed
      zeros); the speed-ratio clamps may use ``np.maximum`` because
      their operands are strictly positive;
    - guarded divisions use ``np.divide(..., out=..., where=...)`` so
      masked-out lanes never divide;
    - no reductions are reassociated (the plan gain stays a
      left-to-right Python accumulation in :func:`make_plan`).

    The device speed ratios are functions of the load fraction alone, and
    the cost terms of the size alone, so both come from module-level
    per-machine value memos (:data:`_RATIO_MEMOS` / :data:`_COST_MEMOS`)
    feeding the same scalar helpers the reference loop memoizes — once
    per distinct value across *all* plans, not per call.
    """
    n = len(batch)
    peak = calib.peak_of(nvm)
    use_miss = cfg.use_miss_counter
    distinguish = cfg.distinguish_rw
    # Inline classify_bandwidth: hoist the two threshold products (same
    # operands, so the comparisons below are bitwise the ones
    # classify_bandwidth would make per object).
    t1_peak = T1 * peak
    t2_peak = T2 * peak

    if n == 0:
        return np.empty(0, dtype=np.float64)

    loads, stores = batch.loads, batch.stores
    bw_d = batch.bw_demand

    if use_miss:
        time_mask = batch.mem_seconds > 0
        all_time = bool(time_mask.all())
        all_count = False if all_time else not bool(time_mask.any())
    else:
        time_mask = None
        all_time = False
        all_count = True
    if all_time or all_count:
        # Homogeneous batch: the masked scatter below degenerates to a
        # rebind, so the zero-filled gain buffers are never needed.
        bw_gain = lat_gain = None
    else:
        count_mask = ~time_mask
        bw_gain = np.zeros(n, dtype=np.float64)
        lat_gain = np.zeros(n, dtype=np.float64)

    if not all_count:
        # Time-based estimator: benefit = (NVM-resident memory-active
        # time) x (1 - DRAM/NVM speed ratio).  Exact for both laws
        # regardless of memory-level parallelism, because the measured
        # active time already embeds the overlap the count-based laws
        # cannot see.
        if all_time:
            l_t, s_t = loads, stores
            ms, df = batch.mem_seconds, batch.dram_frac
        else:
            l_t, s_t = loads[time_mask], stores[time_mask]
            ms, df = batch.mem_seconds[time_mask], batch.dram_frac[time_mask]
        if distinguish:
            lf = _lf_column(l_t, s_t)
        else:
            # price everything at read characteristics (Eqs. 2/3)
            lf = np.ones(l_t.shape[0], dtype=np.float64)
        # Resolve each load fraction through the per-machine value memo —
        # the module-level twin of the reference's per-lf dicts, feeding
        # the same scalar helpers, so the columns are bitwise unchanged.
        chase = calib.chase_latency
        ratio_memo = _per_value_memo(
            _RATIO_MEMOS, (dram, nvm, chase.get(dram.name), chase.get(nvm.name))
        )
        ratio_get = ratio_memo.get
        rb_l: list[float] = []
        rl_l: list[float] = []
        for v in lf.tolist():
            pair = ratio_get(v)
            if pair is None:
                pair = ratio_memo[v] = (
                    _speed_ratio_bw(v, dram, nvm),
                    _speed_ratio_lat(v, dram, nvm, calib),
                )
            rb_l.append(pair[0])
            rl_l.append(pair[1])
        r_bw = np.array(rb_l, dtype=np.float64)
        r_lat = np.array(rl_l, dtype=np.float64)
        # Time gain = NVM-time minus DRAM-time from the measured
        # memory-active seconds; ``dram_frac`` of the active time was
        # observed DRAM-resident and is scaled to its NVM equivalent.
        nvm_part = ms * (1.0 - df)
        dram_part = ms * df
        t_nvm = nvm_part + dram_part / r_bw
        bw_t = (t_nvm * (1.0 - r_bw)) * calib.cf_bw
        t_nvm = nvm_part + dram_part / r_lat
        lat_t = (t_nvm * (1.0 - r_lat)) * calib.cf_lat
        if all_time:
            bw_gain, lat_gain = bw_t, lat_t
        else:
            bw_gain[time_mask] = bw_t
            lat_gain[time_mask] = lat_t

    if not all_time:
        # Count-based laws (Eqs. 2-5): the paper's loads/stores-only
        # configuration, corrected by the raw CF factors and the MLP
        # discount on the latency law.
        if all_count:
            l_c, s_c = loads, stores
            bw_c = bw_d
        else:
            l_c, s_c = loads[count_mask], stores[count_mask]
            bw_c = bw_d[count_mask]
        if use_miss:
            lf = _lf_column(l_c, s_c)
            if all_count:
                mi = batch.misses
            else:
                mi = batch.misses[count_mask]
            eff_loads = mi * lf
            eff_stores = mi * (1.0 - lf)
        else:
            eff_loads, eff_stores = l_c, s_c
        raw_cf_bw = calib.bandwidth_factor(False)
        raw_cf_lat = calib.latency_factor(False)
        # mlp_discount: 1.0 where bw_demand <= 0 (or no chase run), else
        # min(1.0, chase / bw_demand).
        if calib.chase_bandwidth <= 0:
            discount = np.ones(bw_c.shape[0], dtype=np.float64)
        else:
            discount = np.ones(bw_c.shape[0], dtype=np.float64)
            # Subnormal bw demands overflow the ratio to inf — harmless,
            # the clamp below takes 1.0 exactly as the scalar path does.
            with np.errstate(over="ignore"):
                np.divide(calib.chase_bandwidth, bw_c, out=discount, where=bw_c > 0)
            np.minimum(discount, 1.0, out=discount)
        cf_lat = raw_cf_lat * discount
        # benefit_bandwidth / benefit_latency, elementwise (same ops).
        lb = eff_loads * CACHELINE_BYTES
        sb = eff_stores * CACHELINE_BYTES
        if distinguish:
            t_nvm = lb / nvm.read_bandwidth + sb / nvm.write_bandwidth
            t_dram = lb / dram.read_bandwidth + sb / dram.write_bandwidth
        else:
            t_nvm = (lb + sb) / nvm.read_bandwidth
            t_dram = (lb + sb) / dram.read_bandwidth
        bw_cnt = (t_nvm - t_dram) * raw_cf_bw
        if distinguish:
            t_nvm = eff_loads * nvm.read_latency_s + eff_stores * nvm.write_latency_s
            t_dram = (
                eff_loads * dram.read_latency_s + eff_stores * dram.write_latency_s
            )
        else:
            t_nvm = (eff_loads + eff_stores) * nvm.read_latency_s
            t_dram = (eff_loads + eff_stores) * dram.read_latency_s
        lat_cnt = (t_nvm - t_dram) * cf_lat
        if all_count:
            bw_gain, lat_gain = bw_cnt, lat_cnt
        else:
            bw_gain[count_mask] = bw_cnt
            lat_gain[count_mask] = lat_cnt

    # Sensitivity classification as comparisons against the hoisted
    # threshold products; mixed objects take max(bw, lat) with Python
    # max semantics (np.where, not np.maximum — signed zeros).
    mixed = np.where(lat_gain > bw_gain, lat_gain, bw_gain)
    bft = np.where(
        bw_d >= t1_peak, bw_gain, np.where(bw_d <= t2_peak, lat_gain, mixed)
    )
    # ``bft`` is fresh out of np.where, so the scalings run in place —
    # same elementwise products, two allocations fewer.  Confidence damps
    # the benefit of types whose instances vary.
    bft *= benefit_scale
    bft *= batch.confidence

    in_dram = batch.in_dram
    require(in_dram is not None, "batch has no placement columns; "
            "attach them with DemandBatch.with_placement")
    out_mask = ~in_dram
    all_out = bool(out_mask.all())
    if not all_out and not out_mask.any():
        return bft
    # copy_time is a pure function of (size, devices) and partitioned
    # objects share a handful of distinct sizes, so both cost terms come
    # from the per-machine size memo; the overlap-window subtraction (the
    # only per-demand part of Eq. 6) stays elementwise and bitwise
    # identical.
    cost_memo = _per_value_memo(_COST_MEMOS, (dram, nvm))
    cost_get = cost_memo.get
    ct_l: list[float] = []
    ev_l: list[float] = []
    sizes_out = batch.size_bytes if all_out else batch.size_bytes[out_mask]
    for s in sizes_out.tolist():
        pair = cost_get(s)
        if pair is None:
            pair = cost_memo[s] = (
                copy_time(s, nvm, dram, DEFAULT_MIGRATION_OVERHEAD_S),
                eviction_cost([s], dram, nvm),
            )
        ct_l.append(pair[0])
        ev_l.append(pair[1])
    ct = np.array(ct_l, dtype=np.float64)
    off = (
        batch.first_use_offset if all_out
        else batch.first_use_offset[out_mask]
    )
    off_pos = np.where(off >= 0.0, off, 0.0)  # max(off, 0.0)
    diff = ct - off_pos
    cost = np.where(diff >= 0.0, diff, 0.0)  # max(..., 0.0)
    if dram_pressure > 0.0:
        ev = np.array(ev_l, dtype=np.float64)
        total_cost = cost + dram_pressure * ev
    else:
        total_cost = cost + 0.0
    if all_out:
        # Nothing resident: the masked scatter is the identity, so the
        # full-array arithmetic below is the same elementwise sequence.
        return bft - COST_MARGIN * total_cost
    weights = bft.copy()
    weights[out_mask] = bft[out_mask] - COST_MARGIN * total_cost
    return weights


def make_plan(
    scope: str,
    demands: DemandBatch,
    dram_capacity_bytes: int,
    dram_used_bytes: int,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    calib: CalibrationResult,
    cfg: PlanConfig,
    benefit_scale: float = 1.0,
) -> PlacementPlan:
    """Weigh every demand and solve the capacity-constrained selection.

    ``demands`` is a :class:`~repro.core.demand.DemandBatch` with
    placement columns attached (build one from a list of
    :class:`ObjectDemand` with :meth:`DemandBatch.from_demands`).
    """
    batch = demands
    budget = int(dram_capacity_bytes * CAPACITY_FRACTION)
    pressure = max(0.0, min(1.0, dram_used_bytes / max(1, budget)))
    weights = _weights_for(batch, nvm, dram, calib, cfg, pressure, benefit_scale)
    if cfg.solver == "greedy":
        mask = greedy_by_density(weights, batch.size_bytes, budget)
    else:
        mask = solve_knapsack_arrays(weights, batch.size_bytes, budget)
    plan = PlacementPlan(scope=scope)
    uids = batch.uid.tolist()
    w_list = weights.tolist()
    plan.weights = dict(zip(uids, w_list))
    plan.first_use = dict(zip(uids, batch.first_use_offset.tolist()))
    dram_set = plan.dram_set
    gain = 0.0  # same left-to-right accumulation as a kept-only loop
    for uid, w, keep in zip(uids, w_list, mask):
        if keep:
            dram_set.add(uid)
            gain += w
    plan.predicted_gain = gain
    return plan
