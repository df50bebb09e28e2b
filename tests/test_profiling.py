"""Sampling profiler emulation and calibration."""

import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OracleStaticPolicy
from repro.core.sensitivity import object_bandwidth
from repro.memory.device import DeviceKind
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.migration import MigrationEngine
from repro.memory.presets import NVM_CONFIGS, dram, nvm_latency_scaled
from repro.profiling.sampler import SamplingProfiler
from repro.tasking.access import PATTERNS, AccessMode, AccessPattern, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import ExecContext, ExecutorConfig
from repro.tasking.footprints import chase_footprint, read_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.helpers import reads, writes
from tests.reference_executor import memory_time, placed_times
from tests.reference_weigher import mlp_discount


def on_dram(task):
    """``sample_task``'s ground-truth inputs with every object in DRAM."""
    return placed_times(task, dram(int(64 * MIB)))


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
        p = prof.sample_task(t, 5e-3, *on_dram(t))
        a = next(iter(t.accesses))
        true_loads = t.accesses[a].loads
        est = p.objects[a.uid].loads
        assert est == pytest.approx(true_loads, rel=0.15)

    def test_counts_are_pre_cache(self):
        """Load/store events see cache hits: estimates track total
        instruction counts, not misses."""
        t = stream_task()
        prof = SamplingProfiler(interval_cycles=1000, seed=2)
        p = prof.sample_task(t, 5e-3, *on_dram(t))
        a = next(iter(t.accesses))
        assert p.objects[a.uid].loads > 2 * t.accesses[a].miss_loads

    def test_miss_counter_tracks_misses(self):
        t = stream_task()
        prof = SamplingProfiler(interval_cycles=1000, seed=3)
        p = prof.sample_task(t, 5e-3, *on_dram(t))
        a = next(iter(t.accesses))
        true_misses = t.accesses[a].miss_loads + t.accesses[a].miss_stores
        assert p.objects[a.uid].misses == pytest.approx(true_misses, rel=0.25)

    def test_deterministic_per_task(self):
        t = stream_task()
        prof = SamplingProfiler(seed=5)
        p1 = prof.sample_task(t, 1e-3, *on_dram(t))
        p2 = prof.sample_task(t, 1e-3, *on_dram(t))
        assert p1.objects == p2.objects

    def test_different_seeds_differ(self):
        t = stream_task()
        a = next(iter(t.accesses))
        p1 = SamplingProfiler(seed=1).sample_task(t, 1e-3, *on_dram(t))
        p2 = SamplingProfiler(seed=2).sample_task(t, 1e-3, *on_dram(t))
        assert p1.objects[a.uid].loads != p2.objects[a.uid].loads

    def test_sparser_sampling_noisier(self):
        t = stream_task(mib=0.5)
        a = next(iter(t.accesses))
        true_loads = t.accesses[a].loads

        def err(interval):
            errs = []
            for seed in range(12):
                p = SamplingProfiler(interval_cycles=interval, seed=seed).sample_task(
                    t, 1e-3, *on_dram(t)
                )
                errs.append(abs(p.objects[a.uid].loads - true_loads) / true_loads)
            return sum(errs) / len(errs)

        assert err(10_000) > err(100)

    def test_overhead_scales_with_duration_and_interval(self):
        dense = SamplingProfiler(interval_cycles=100, seed=0)
        sparse = SamplingProfiler(interval_cycles=10_000, seed=0)
        assert dense.overhead_time(1e-3) > sparse.overhead_time(1e-3)
        assert dense.overhead_time(2e-3) == pytest.approx(2 * dense.overhead_time(1e-3), rel=0.01)

    def test_device_and_mem_active_reported(self):
        t = stream_task()
        d = dram(int(64 * MIB))
        prof = SamplingProfiler(seed=4)
        p = prof.sample_task(t, 5e-3, *placed_times(t, d))
        s = next(iter(p.objects.values()))
        assert s.on_dram is True
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
        duration = memory_time(acc, d) + t.compute_time
        p = SamplingProfiler(seed=6).sample_task(t, duration, *placed_times(t, d))
        assert p.objects[lst.uid].mem_active_fraction > 0.8

    def test_object_bandwidth_estimate(self):
        t = stream_task()
        d = dram(int(64 * MIB))
        a = next(iter(t.accesses))
        mem_times, on_dram = placed_times(t, d)
        duration = sum(mem_times) + t.compute_time
        p = SamplingProfiler(seed=7).sample_task(t, duration, mem_times, on_dram)
        bw = object_bandwidth(p.objects[a.uid], p.duration)
        # A streaming object's demand approaches device bandwidth.
        assert bw > 0.2 * d.read_bandwidth

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_cycles=0, seed=0)


def bits(xs) -> bytes:
    return struct.pack(f"<{len(xs)}d", *xs)


_PATTERN = st.one_of(
    st.sampled_from(list(PATTERNS.values())),
    st.builds(
        AccessPattern,
        name=st.just("drawn"),
        hit_ratio=st.floats(0.0, 0.999),
        mlp=st.floats(0.5, 64.0),
    ),
)
_COUNT = st.one_of(st.just(0), st.integers(1, 10**8))


@st.composite
def _footprint(draw):
    mode = draw(st.sampled_from(list(AccessMode)))
    return ObjectAccess(
        mode,
        loads=draw(_COUNT) if reads(mode) else 0,
        stores=draw(_COUNT) if writes(mode) else 0,
        pattern=draw(_PATTERN),
    )


@st.composite
def _device(draw, kind, name):
    base = draw(st.sampled_from([dram(), *NVM_CONFIGS().values()]))
    return base.scaled(
        name=name,
        kind=kind,
        capacity_bytes=int(64 * MIB),
        latency_scale=draw(st.floats(0.25, 16.0)),
        bandwidth_scale=draw(st.floats(1 / 16, 4.0)),
    )


@st.composite
def placed_programs(draw):
    """Tasks over a few objects with drawn footprints, on a machine of
    two drawn devices, every object placed on a drawn tier."""
    hms = HeterogeneousMemorySystem(
        draw(_device(DeviceKind.DRAM, "tier-d")), draw(_device(DeviceKind.NVM, "tier-n"))
    )
    objs = [DataObject(name=f"o{i}", size_bytes=4096) for i in range(draw(st.integers(1, 5)))]
    graph = TaskGraph()
    for i in range(draw(st.integers(1, 6))):
        touched = draw(st.lists(st.sampled_from(objs), min_size=1, unique=True))
        graph.add(
            Task(
                name=f"t{i}",
                type_name="t",
                accesses={o: draw(_footprint()) for o in touched},
                compute_time=draw(st.floats(0.0, 1e-3)),
            )
        )
    for o in graph.objects:
        hms.allocate(o, hms.dram if draw(st.booleans()) else hms.nvm)
    return graph, hms


@settings(max_examples=150, deadline=None)
@given(program=placed_programs())
def test_profiler_and_oracle_time_with_the_scalar_law(program):
    """The executor's vectorized law is the one the profiler and the
    oracle read: the memory times ``ExecContext.profile`` hands the
    sampler, and the oracle's per-object values, equal the scalar
    reference law byte for byte."""
    graph, hms = program
    ctx = ExecContext(graph, hms, MigrationEngine(), ExecutorConfig())
    received = []
    ctx._profiler.sample_task = lambda task, duration, mem, on_dram: received.append(
        (list(mem), list(on_dram))
    )
    for t in graph.tasks:
        ctx.profile(t, 1e-3)
        mem, on_dram = received.pop()
        want = [memory_time(acc, hms.device_of(o)) for o, acc in t.accesses.items()]
        assert bits(mem) == bits(want)
        assert on_dram == [hms.in_dram(o) for o in t.accesses]

    benefit = {o.uid: 0.0 for o in graph.objects}
    for t in graph.tasks:
        for o, acc in t.accesses.items():
            benefit[o.uid] += memory_time(acc, hms.nvm) - memory_time(acc, hms.dram)
    with mock.patch(
        "repro.baselines.oracle.solve_knapsack_arrays", side_effect=lambda v, *a, **k: [False] * len(v)
    ) as solve:
        OracleStaticPolicy().on_run_start(ctx)
    values = solve.call_args.args[0]
    assert bits(values) == bits([benefit[o.uid] for o in graph.objects])


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
