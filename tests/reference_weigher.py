"""Scalar reference weigher for differential testing.

This is the per-object Eq. 7 loop the placement plane ran before its
structure-of-arrays rebuild, kept verbatim together with the scalar
helpers it calls: the speed ratios, the count-based benefit laws
(Eqs. 2–5), the eviction cost (Eq. 7's extra_COST), the miss-counter
effective counts and the MLP discount.  The package ships none of these;
its one implementation of the equations is the column weigher
:func:`repro.core.placement._weights_for`, which shares no code with
this module, so a bug on either side shows.
``tests/test_placement_batch.py`` drives both over Hypothesis-generated
devices, calibrations and demand batches and compares every lane by its
IEEE-754 bytes.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.demand import DemandBatch
from repro.core.placement import COST_MARGIN, PlanConfig
from repro.core.sensitivity import T1, T2
from repro.memory.device import MemoryDevice
from repro.memory.migration import copy_time
from repro.profiling.calibration import CalibrationResult
from repro.util.units import CACHELINE_BYTES

__all__ = [
    "benefit_bandwidth",
    "benefit_latency",
    "eviction_cost",
    "effective_counts",
    "mlp_discount",
    "weights_for_ref",
]

#: Sensitivity-class labels (Eq. 1): bandwidth, latency, else mixed.
BANDWIDTH = "bandwidth"
LATENCY = "latency"
MIXED = "mixed"


def benefit_bandwidth(
    loads: float,
    stores: float,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    cf_bw: float,
    distinguish_rw: bool = True,
) -> float:
    """Eq. 4 (or Eq. 2 when ``distinguish_rw`` is False)."""
    lb = loads * CACHELINE_BYTES
    sb = stores * CACHELINE_BYTES
    if distinguish_rw:
        t_nvm = lb / nvm.read_bandwidth + sb / nvm.write_bandwidth
        t_dram = lb / dram.read_bandwidth + sb / dram.write_bandwidth
    else:
        t_nvm = (lb + sb) / nvm.read_bandwidth
        t_dram = (lb + sb) / dram.read_bandwidth
    return (t_nvm - t_dram) * cf_bw


def benefit_latency(
    loads: float,
    stores: float,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    cf_lat: float,
    distinguish_rw: bool = True,
) -> float:
    """Eq. 5 (or Eq. 3 when ``distinguish_rw`` is False)."""
    if distinguish_rw:
        t_nvm = loads * nvm.read_latency_s + stores * nvm.write_latency_s
        t_dram = loads * dram.read_latency_s + stores * dram.write_latency_s
    else:
        t_nvm = (loads + stores) * nvm.read_latency_s
        t_dram = (loads + stores) * dram.read_latency_s
    return (t_nvm - t_dram) * cf_lat


def eviction_cost(
    victim_sizes: Iterable[int],
    dram: MemoryDevice,
    nvm: MemoryDevice,
    overlap_window_s: float = 0.0,
) -> float:
    """Eq. 7's extra_COST: copies moving victims out of DRAM."""
    total = 0.0
    for size in victim_sizes:
        total += copy_time(size, dram, nvm)
    return max(total - max(overlap_window_s, 0.0), 0.0)


def effective_counts(
    loads: float, stores: float, misses: float, use_miss_counter: bool
) -> tuple[float, float]:
    """(loads, stores) the benefit models should price.

    With the miss counter, magnitude comes from misses and the
    read/write split from the load/store ratio; without it (the
    paper's loads/stores-only configuration) the raw pre-cache counts
    are used and the CF factors must absorb cache filtering.
    """
    if not use_miss_counter:
        return loads, stores
    total = loads + stores
    lf = loads / total if total > 0 else 1.0
    return misses * lf, misses * (1.0 - lf)


def mlp_discount(calib: CalibrationResult, bw_demand: float) -> float:
    """Discount on the latency law for an object whose Eq.-1 demand is
    ``bw_demand``: demand above the single-stream chase rate implies
    overlapping misses, which shrink exposed latency proportionally."""
    if bw_demand <= 0 or calib.chase_bandwidth <= 0:
        return 1.0
    return min(1.0, calib.chase_bandwidth / bw_demand)


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


def weights_for_ref(
    batch: DemandBatch,
    nvm: MemoryDevice,
    dram: MemoryDevice,
    calib: CalibrationResult,
    cfg: PlanConfig,
    dram_pressure: float,
    benefit_scale: float = 1.0,
) -> list[float]:
    """Eq. 7 weights, one object at a time.

    ``batch`` carries placement columns; its lanes are walked as Python
    floats (``tolist``).  Per-plan invariants (peak bandwidth, CF
    factors, config flags) are hoisted out of the loop, and the device
    speed ratios — functions of the load fraction alone once the devices
    are fixed — are memoized per distinct ``lf``.
    """
    peak = calib.peak_of(nvm)
    use_miss = cfg.use_miss_counter
    distinguish = cfg.distinguish_rw
    margin = COST_MARGIN
    cf_bw_time, cf_lat_time = calib.cf_bw, calib.cf_lat
    raw_cf_bw: float | None = None
    raw_cf_lat = 0.0
    bw_ratio: dict[float, float] = {}
    lat_ratio: dict[float, float] = {}
    mig_ct: dict[int, float] = {}
    ev_ct: dict[int, float] = {}
    t1_peak = T1 * peak
    t2_peak = T2 * peak

    lanes = zip(
        batch.size_bytes.tolist(),
        batch.loads.tolist(),
        batch.stores.tolist(),
        batch.misses.tolist(),
        batch.bw_demand.tolist(),
        batch.confidence.tolist(),
        batch.mem_seconds.tolist(),
        batch.dram_frac.tolist(),
        batch.in_dram.tolist(),
        batch.first_use_offset.tolist(),
    )
    weights: list[float] = []
    for size, loads, stores, misses, bw_d, conf, ms, df, in_dram, off in lanes:
        if bw_d >= t1_peak:
            sens = BANDWIDTH
        elif bw_d <= t2_peak:
            sens = LATENCY
        else:
            sens = MIXED
        if use_miss and ms > 0:
            total = loads + stores
            lf = loads / total if total > 0 else 1.0
            if not distinguish:
                lf = 1.0  # price everything at read characteristics (Eqs. 2/3)
            r_bw = bw_ratio.get(lf)
            if r_bw is None:
                r_bw = bw_ratio[lf] = _speed_ratio_bw(lf, dram, nvm)
            r_lat = lat_ratio.get(lf)
            if r_lat is None:
                r_lat = lat_ratio[lf] = _speed_ratio_lat(lf, dram, nvm, calib)
            t_nvm = ms * (1.0 - df) + ms * df / r_bw
            bw_gain = (t_nvm * (1.0 - r_bw)) * cf_bw_time
            t_nvm = ms * (1.0 - df) + ms * df / r_lat
            lat_gain = (t_nvm * (1.0 - r_lat)) * cf_lat_time
        else:
            eff_loads, eff_stores = effective_counts(loads, stores, misses, use_miss)
            if raw_cf_bw is None:
                raw_cf_bw = calib.bandwidth_factor(False)
                raw_cf_lat = calib.latency_factor(False)
            cf_lat = raw_cf_lat * mlp_discount(calib, bw_d)
            bw_gain = benefit_bandwidth(
                eff_loads, eff_stores, nvm, dram, raw_cf_bw, distinguish
            )
            lat_gain = benefit_latency(
                eff_loads, eff_stores, nvm, dram, cf_lat, distinguish
            )
        if sens == BANDWIDTH:
            bft = bw_gain
        elif sens == LATENCY:
            bft = lat_gain
        else:
            bft = max(bw_gain, lat_gain)
        bft *= benefit_scale
        bft *= conf
        if in_dram:
            weights.append(bft)
            continue
        ct = mig_ct.get(size)
        if ct is None:
            ct = mig_ct[size] = copy_time(size, nvm, dram)
        cost = max(ct - max(off, 0.0), 0.0)
        extra = 0.0
        if dram_pressure > 0.0:
            ev = ev_ct.get(size)
            if ev is None:
                ev = ev_ct[size] = eviction_cost([size], dram, nvm)
            extra = dram_pressure * ev
        weights.append(bft - margin * (cost + extra))
    return weights
