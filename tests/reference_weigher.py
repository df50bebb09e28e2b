"""Scalar reference weigher for differential testing.

This is the per-object Eq. 7 loop the placement plane ran before its
structure-of-arrays rebuild, kept verbatim together with the scalar
speed-ratio helpers it calls.  The production weigher
:func:`repro.core.placement._weights_for` computes the same weights as
numpy column arithmetic and shares none of this code, so a bug on
either side shows; ``tests/test_placement_batch.py`` drives both over
Hypothesis-generated devices, calibrations and demand batches and
compares every lane by its IEEE-754 bytes.
"""

from __future__ import annotations

from repro.core.benefit import benefit_bandwidth, benefit_latency
from repro.core.cost import eviction_cost
from repro.core.placement import COST_MARGIN, ObjectDemand, PlanConfig
from repro.core.sensitivity import T1, T2, Sensitivity
from repro.memory.device import MemoryDevice
from repro.memory.migration import DEFAULT_MIGRATION_OVERHEAD_S, copy_time
from repro.profiling.calibration import CalibrationResult

__all__ = ["weights_for_ref"]


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
    demands: list[ObjectDemand],
    nvm: MemoryDevice,
    dram: MemoryDevice,
    calib: CalibrationResult,
    cfg: PlanConfig,
    dram_pressure: float,
    benefit_scale: float = 1.0,
) -> list[float]:
    """Eq. 7 weights, one object at a time.

    Per-plan invariants (peak bandwidth, CF factors, config flags) are
    hoisted out of the loop, and the device speed ratios — functions of
    the load fraction alone once the devices are fixed — are memoized per
    distinct ``lf``.
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
    bandwidth_sens, latency_sens = Sensitivity.BANDWIDTH, Sensitivity.LATENCY
    t1_peak = T1 * peak
    t2_peak = T2 * peak

    weights: list[float] = []
    for demand in demands:
        st = demand.stats
        bw_d = st.bw_demand
        if bw_d >= t1_peak:
            sens = bandwidth_sens
        elif bw_d <= t2_peak:
            sens = latency_sens
        else:
            sens = None  # mixed
        if use_miss and st.mem_seconds > 0:
            total = st.loads + st.stores
            lf = st.loads / total if total > 0 else 1.0
            if not distinguish:
                lf = 1.0  # price everything at read characteristics (Eqs. 2/3)
            r_bw = bw_ratio.get(lf)
            if r_bw is None:
                r_bw = bw_ratio[lf] = _speed_ratio_bw(lf, dram, nvm)
            r_lat = lat_ratio.get(lf)
            if r_lat is None:
                r_lat = lat_ratio[lf] = _speed_ratio_lat(lf, dram, nvm, calib)
            ms, df = st.mem_seconds, st.dram_frac
            t_nvm = ms * (1.0 - df) + ms * df / r_bw
            bw_gain = (t_nvm * (1.0 - r_bw)) * cf_bw_time
            t_nvm = ms * (1.0 - df) + ms * df / r_lat
            lat_gain = (t_nvm * (1.0 - r_lat)) * cf_lat_time
        else:
            eff_loads, eff_stores = st.effective_counts(use_miss)
            if raw_cf_bw is None:
                raw_cf_bw = calib.bandwidth_factor(False)
                raw_cf_lat = calib.latency_factor(False)
            cf_lat = raw_cf_lat * calib.mlp_discount(st.bw_demand)
            bw_gain = benefit_bandwidth(
                eff_loads, eff_stores, nvm, dram, raw_cf_bw, distinguish
            )
            lat_gain = benefit_latency(
                eff_loads, eff_stores, nvm, dram, cf_lat, distinguish
            )
        if sens is bandwidth_sens:
            bft = bw_gain
        elif sens is latency_sens:
            bft = lat_gain
        else:
            bft = max(bw_gain, lat_gain)
        bft *= benefit_scale
        bft *= st.confidence
        if demand.in_dram:
            weights.append(bft)
            continue
        size = st.size_bytes
        ct = mig_ct.get(size)
        if ct is None:
            ct = mig_ct[size] = copy_time(
                size, nvm, dram, DEFAULT_MIGRATION_OVERHEAD_S
            )
        off = demand.first_use_offset
        cost = max(ct - max(off, 0.0), 0.0)
        extra = 0.0
        if dram_pressure > 0.0:
            ev = ev_ct.get(size)
            if ev is None:
                ev = ev_ct[size] = eviction_cost([size], dram, nvm)
            extra = dram_pressure * ev
        weights.append(bft - margin * (cost + extra))
    return weights
