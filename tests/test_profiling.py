"""Sampling profiler emulation, exact counters, and calibration."""

import pytest

from repro.core.sensitivity import object_bandwidth
from repro.memory.presets import dram, nvm_latency_scaled
from repro.profiling.counters import GroundTruthCounters
from repro.profiling.sampler import SamplingProfiler
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import ExecutorConfig
from repro.tasking.footprints import chase_footprint, read_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.reference_weigher import mlp_discount


def stream_task(mib=8.0):
    a = DataObject(name="a", size_bytes=int(mib * MIB))
    b = DataObject(name="b", size_bytes=int(mib * MIB))
    return Task(
        name="copy",
        type_name="copy",
        accesses={
            a: read_footprint(a.size_bytes),
            b: write_footprint(b.size_bytes),
        },
        compute_time=1e-4,
    )


class TestSamplingProfiler:
    def test_counts_unbiased_within_noise(self):
        t = stream_task()
        prof = SamplingProfiler(interval_cycles=1000, seed=1)
        p = prof.sample_task(t, duration=5e-3)
        a = t.objects[0]
        true_loads = t.accesses[a].loads
        est = p.objects[a.uid].loads
        assert est == pytest.approx(true_loads, rel=0.15)

    def test_counts_are_pre_cache(self):
        """Load/store events see cache hits: estimates track total
        instruction counts, not misses."""
        t = stream_task()
        prof = SamplingProfiler(interval_cycles=1000, seed=2)
        p = prof.sample_task(t, duration=5e-3)
        a = t.objects[0]
        assert p.objects[a.uid].loads > 2 * t.accesses[a].miss_loads

    def test_miss_counter_tracks_misses(self):
        t = stream_task()
        prof = SamplingProfiler(interval_cycles=1000, seed=3)
        p = prof.sample_task(t, duration=5e-3)
        a = t.objects[0]
        true_misses = t.accesses[a].miss_loads + t.accesses[a].miss_stores
        assert p.objects[a.uid].misses == pytest.approx(true_misses, rel=0.25)

    def test_deterministic_per_task(self):
        t = stream_task()
        prof = SamplingProfiler(seed=5)
        p1 = prof.sample_task(t, duration=1e-3)
        p2 = prof.sample_task(t, duration=1e-3)
        assert p1.objects == p2.objects

    def test_different_seeds_differ(self):
        t = stream_task()
        a = t.objects[0]
        p1 = SamplingProfiler(seed=1).sample_task(t, duration=1e-3)
        p2 = SamplingProfiler(seed=2).sample_task(t, duration=1e-3)
        assert p1.objects[a.uid].loads != p2.objects[a.uid].loads

    def test_sparser_sampling_noisier(self):
        t = stream_task(mib=0.5)
        a = t.objects[0]
        true_loads = t.accesses[a].loads

        def err(interval):
            errs = []
            for seed in range(12):
                p = SamplingProfiler(interval_cycles=interval, seed=seed).sample_task(
                    t, duration=1e-3
                )
                errs.append(abs(p.objects[a.uid].loads - true_loads) / true_loads)
            return sum(errs) / len(errs)

        assert err(10_000) > err(100)

    def test_overhead_scales_with_duration_and_interval(self):
        dense = SamplingProfiler(interval_cycles=100)
        sparse = SamplingProfiler(interval_cycles=10_000)
        assert dense.overhead_time(1e-3) > sparse.overhead_time(1e-3)
        assert dense.overhead_time(2e-3) == pytest.approx(2 * dense.overhead_time(1e-3), rel=0.01)

    def test_device_and_mem_active_reported(self):
        t = stream_task()
        d = dram(int(64 * MIB))
        prof = SamplingProfiler(seed=4)
        p = prof.sample_task(t, duration=5e-3, device_of=lambda o: d)
        s = next(iter(p.objects.values()))
        assert s.device == d.name
        assert 0.0 <= s.mem_active_fraction <= 1.0

    def test_mem_active_fraction_reflects_memory_share(self):
        """A latency-bound chase spends most of its time in memory; its
        mem_active_fraction must be high."""
        lst = DataObject(name="l", size_bytes=int(4 * MIB))
        t = Task(
            name="chase",
            type_name="chase",
            accesses={lst: chase_footprint(50_000)},
            compute_time=1e-6,
        )
        d = dram(int(64 * MIB))
        acc = t.accesses[lst]
        duration = acc.memory_time(d) + t.compute_time
        p = SamplingProfiler(seed=6).sample_task(t, duration, device_of=lambda o: d)
        assert p.objects[lst.uid].mem_active_fraction > 0.8

    def test_object_bandwidth_estimate(self):
        t = stream_task()
        d = dram(int(64 * MIB))
        a = t.objects[0]
        duration = sum(acc.memory_time(d) for acc in t.accesses.values()) + t.compute_time
        p = SamplingProfiler(seed=7).sample_task(t, duration, device_of=lambda o: d)
        bw = object_bandwidth(p.objects[a.uid], p.duration)
        # A streaming object's demand approaches device bandwidth.
        assert bw > 0.2 * d.read_bandwidth

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_cycles=0)


class TestGroundTruthCounters:
    def test_profile_graph_aggregates(self):
        g = TaskGraph()
        o = DataObject(name="o", size_bytes=int(MIB))
        for i in range(3):
            g.add(
                Task(
                    name=f"t{i}",
                    type_name="t",
                    accesses={o: read_footprint(o.size_bytes)},
                )
            )
        c = GroundTruthCounters.profile_graph(g)
        assert c.per_object[o.uid].tasks == 3
        assert c.per_object[o.uid].loads == 3 * g.tasks[0].accesses[o].loads

    def test_hottest_first_ranks_by_density(self):
        g = TaskGraph()
        hot = DataObject(name="hot", size_bytes=int(MIB))
        cold = DataObject(name="cold", size_bytes=int(8 * MIB))
        g.add(
            Task(
                name="t",
                type_name="t",
                accesses={
                    hot: read_footprint(hot.size_bytes, reuse=8.0),
                    cold: read_footprint(cold.size_bytes),
                },
            )
        )
        assert GroundTruthCounters.profile_graph(g).hottest_first()[0] == hot.uid


class TestCalibration:
    def test_calibration_shape(self, calibration_bw):
        c = calibration_bw
        assert 0.5 < c.cf_bw < 2.0  # time-based estimator: near 1
        assert 0.5 < c.cf_lat < 2.0
        assert c.cf_bw_raw < 0.5  # raw counts overstate traffic by ~8x
        assert c.peak_of("dram") > c.peak_of("nvm-bw-0.5")
        assert c.chase_bandwidth < c.peak_of("dram") / 2
        assert set(c.chase_latency) == {"dram", "nvm-bw-0.5"}

    def test_chase_latency_reflects_device(self):
        from repro.profiling.calibration import calibrate

        c = calibrate(dram(), nvm_latency_scaled(4.0), ExecutorConfig(n_workers=2))
        assert c.chase_latency["nvm-lat-4x"] > 1.5 * c.chase_latency["dram"]

    def test_mlp_discount(self, calibration_bw):
        c = calibration_bw
        assert c.chase_bandwidth > 0
        assert mlp_discount(c, c.chase_bandwidth / 2) == 1.0
        assert mlp_discount(c, c.chase_bandwidth * 4) == pytest.approx(0.25)
        assert mlp_discount(c, 0.0) == 1.0
