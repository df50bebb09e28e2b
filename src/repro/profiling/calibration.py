"""Offline hardware calibration: CF factors, peak bandwidths, chase rate.

The paper's models are deliberately lightweight; everything they omit
(cache filtering of the counted events, memory-level parallelism, access
overlap, sampling scale error) is absorbed by constant factors measured
*once per platform* with two microbenchmarks (STREAM and pointer chasing).

Because the benefit equations price a *difference* (NVM time minus DRAM
time), the factors here are calibrated on differences too: each
microbenchmark runs on DRAM and on a synthetic derived device (2x slower
bandwidth for STREAM, 4x longer latency for pChase), and the CF is
``measured difference / law-predicted difference``.  A factor calibrated
on absolute times would smuggle the fixed CPU-side miss cost — which
cancels in differences — into every benefit estimate and systematically
over-migrate (we verified exactly this failure mode before switching).

Also measured:

- per-device achievable peak bandwidth (STREAM, max concurrency) — the
  Eq.-1 classification denominator;
- the single-stream chase rate ``chase_bandwidth`` — the bandwidth a
  concurrency-1 access stream sustains; the ratio of an object's Eq.-1
  demand to this rate estimates its memory-level parallelism, with which
  the placement weigher discounts the count-based latency law.

Both CF pairs are produced: miss-counter based (default) and pre-cache
loads/stores-only (the paper's configuration, for the E9 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.memory.device import MemoryDevice
from repro.memory.hms import HeterogeneousMemorySystem
from repro.profiling.sampler import SamplingProfiler
from repro.tasking.executor import Executor, ExecutorConfig, placed_memory_times
from repro.util.log import get_logger

__all__ = ["CalibrationResult", "calibrate"]

log = get_logger(__name__)


@dataclass(frozen=True)
class CalibrationResult:
    """Platform constants the data manager's models consume."""

    cf_bw: float  #: bandwidth-law difference correction (miss counts)
    cf_lat: float  #: latency-law difference correction (miss counts)
    cf_bw_raw: float  #: same, for pre-cache loads/stores-only counts
    cf_lat_raw: float
    #: device name -> achievable peak bandwidth (bytes/s, STREAM-measured
    #: in the same estimated-traffic units Eq. 1 produces).
    peak_bandwidth: dict[str, float]
    #: bytes/s sustained by a single dependent-access stream on DRAM.
    chase_bandwidth: float
    #: device name -> measured per-miss time (seconds) of a dependent
    #: access stream — the loaded latency the time-based estimator uses.
    chase_latency: dict[str, float]

    def peak_of(self, device: MemoryDevice | str) -> float:
        name = device.name if isinstance(device, MemoryDevice) else device
        return self.peak_bandwidth[name]

    def bandwidth_factor(self, use_miss_counter: bool) -> float:
        return self.cf_bw if use_miss_counter else self.cf_bw_raw

    def latency_factor(self, use_miss_counter: bool) -> float:
        return self.cf_lat if use_miss_counter else self.cf_lat_raw


def _sum_counts(trace, times, profiler):
    """(miss_loads, miss_stores, raw_loads, raw_stores, bytes_est,
    mem_active_seconds, time), profiling each task with ``times`` (the
    run's :func:`placed_memory_times`), as the runtime profiles online."""
    ml = ms = rl = rs = be = ma = tt = 0.0
    for task, duration in zip(trace.tasks, trace.durations()):
        prof = profiler.sample_task(task, duration, *times(task))
        for s in prof.objects.values():
            ml += s.miss_loads
            ms += s.miss_stores
            rl += s.loads
            rs += s.stores
            be += s.accessed_bytes
            ma += s.mem_active_fraction * duration
        tt += duration
    return ml, ms, rl, rs, be, ma, tt


def calibrate(
    dram: MemoryDevice,
    nvm: MemoryDevice,
    config: ExecutorConfig | None = None,
) -> CalibrationResult:
    """Measure the platform constants.  Runs once per (device pair,
    sampling config); results are valid for every application on the
    platform, as in the paper's workflow."""
    from repro.baselines.policies import DRAMOnlyPolicy, NVMOnlyPolicy
    from repro.memory.device import DeviceKind
    from repro.workloads.base import build

    config = config or ExecutorConfig()
    profiler = SamplingProfiler(
        interval_cycles=config.sampling_interval_cycles,
        seed=config.seed,
    )

    def run(workload, device, workers):
        """Run ``workload`` with all data on ``device`` (a synthetic or real
        tier exposed as the NVM slot of a scratch machine); returns the
        trace and the run's placed memory times."""
        big = workload.total_bytes * 4
        scratch = HeterogeneousMemorySystem(
            dram.scaled(capacity_bytes=big),
            device.scaled(name="cal-nvm", kind=DeviceKind.NVM, capacity_bytes=big),
        )
        cfg = replace(config, n_workers=workers)
        if device.name == dram.name:
            trace = Executor(scratch, cfg).run(workload.graph, DRAMOnlyPolicy())
        else:
            trace = Executor(scratch, cfg).run(workload.graph, NVMOnlyPolicy())
        return trace, placed_memory_times(workload.graph, scratch)

    # ----------------------------------------------------------- CF_bw
    # STREAM on DRAM vs a synthetic half-bandwidth device.
    stream = build("stream", n_tasks=max(4, config.n_workers), iterations=2)
    slow_bw = dram.scaled(name="cal-halfbw", bandwidth_scale=0.5)
    tr_fast, on_fast = run(stream, dram, config.n_workers)
    tr_slow, _ = run(stream, slow_bw, config.n_workers)
    ml, ms, rl, rs, bytes_d, mem_d, t_fast = _sum_counts(tr_fast, on_fast, profiler)
    t_slow = tr_slow.total_task_time

    # Time-based prediction: NVM time = measured memory-active time / r,
    # where r is the datasheet speed ratio the runtime will also use.
    lf = ml / (ml + ms) if (ml + ms) > 0 else 1.0
    r_bw = (lf / dram.read_bandwidth + (1 - lf) / dram.write_bandwidth) / (
        lf / slow_bw.read_bandwidth + (1 - lf) / slow_bw.write_bandwidth
    )
    meas_diff = max(t_slow - t_fast, 0.0)
    pred = mem_d * (1.0 / r_bw - 1.0)
    cf_bw = meas_diff / pred if pred > 0 else 1.0

    def bw_diff(loads, stores, fast, slow):
        return (
            loads * 64 * (1 / slow.read_bandwidth - 1 / fast.read_bandwidth)
            + stores * 64 * (1 / slow.write_bandwidth - 1 / fast.write_bandwidth)
        )

    pred_raw = bw_diff(rl, rs, dram, slow_bw)
    cf_bw_raw = meas_diff / pred_raw if pred_raw > 0 else 1.0

    # Peak bandwidths (Eq.-1 units) on the real devices.
    peak = {dram.name: bytes_d / t_fast if t_fast > 0 else dram.read_bandwidth}
    tr_nvm, on_nvm = run(stream, nvm, config.n_workers)
    *_, bytes_n, _mem_n, t_nvm = _sum_counts(tr_nvm, on_nvm, profiler)
    peak[nvm.name] = bytes_n / t_nvm if t_nvm > 0 else nvm.read_bandwidth

    # ----------------------------------------------------------- CF_lat
    # pChase (single worker) on DRAM vs a synthetic 4x-latency device,
    # plus a run on the real NVM for its loaded per-miss latency.
    chase = build("pchase", n_tasks=4, hops_per_task=100_000)
    slow_lat = dram.scaled(name="cal-4xlat", latency_scale=4.0)
    tr_cf, on_cf = run(chase, dram, 1)
    tr_cs, on_cs = run(chase, slow_lat, 1)
    cml, cms, crl, crs, cbytes, cmem_d, ct_fast = _sum_counts(tr_cf, on_cf, profiler)
    sml, sms, *_rest, ct_slow = _sum_counts(tr_cs, on_cs, profiler)

    misses_fast = cml + cms
    misses_slow = sml + sms
    per_miss_fast = ct_fast / misses_fast if misses_fast > 0 else 1e-9
    per_miss_slow = ct_slow / misses_slow if misses_slow > 0 else 1e-9
    chase_lat = {dram.name: per_miss_fast}

    r_lat = per_miss_fast / per_miss_slow
    meas_lat = max(ct_slow - ct_fast, 0.0)
    pred_lat = cmem_d * (1.0 / r_lat - 1.0)
    cf_lat = meas_lat / pred_lat if pred_lat > 0 else 1.0

    def lat_diff(loads, stores, fast, slow):
        return loads * (slow.read_latency_s - fast.read_latency_s) + stores * (
            slow.write_latency_s - fast.write_latency_s
        )

    pred_lat_raw = lat_diff(crl, crs, dram, slow_lat)
    cf_lat_raw = meas_lat / pred_lat_raw if pred_lat_raw > 0 else 1.0

    # Loaded per-miss latency of the real NVM device.
    tr_cn, on_cn = run(chase, nvm, 1)
    nml, nms, *_r2, ct_nvm = _sum_counts(tr_cn, on_cn, profiler)
    misses_nvm = nml + nms
    chase_lat[nvm.name] = ct_nvm / misses_nvm if misses_nvm > 0 else per_miss_fast

    chase_bw = cbytes / ct_fast if ct_fast > 0 else 1.0

    log.debug(
        "calibrated %s+%s: cf_bw=%.3f cf_lat=%.3f peaks=%s",
        dram.name, nvm.name, cf_bw, cf_lat,
        {k: f'{v / 1e9:.2f}GB/s' for k, v in peak.items()},
    )
    return CalibrationResult(
        cf_bw=cf_bw,
        cf_lat=cf_lat,
        cf_bw_raw=cf_bw_raw,
        cf_lat_raw=cf_lat_raw,
        peak_bandwidth=peak,
        chase_bandwidth=chase_bw,
        chase_latency=chase_lat,
    )
