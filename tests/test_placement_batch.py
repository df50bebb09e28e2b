"""Differential suite for the SoA placement plane.

The column weigher (:func:`repro.core.placement._weights_for`) must be
*bitwise* identical to the retired scalar loop, which survives verbatim,
with its own scalar benefit, cost and speed-ratio helpers, in
``tests/reference_weigher.py``.  Hypothesis draws demand batches as
columns, built the way the manager builds them (``from_columns`` then
``with_placement``), and drives both weighers over them — mixed
sensitivity classes, zero-count objects, timed and untimed lanes side by
side, every config-flag combination, resident and incoming objects — on
the calibrated platform and on drawn machines (asymmetric read/write
devices, calibrations with and without chase runs), and every float is
compared by its IEEE-754 bytes, not by ``==``.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demand import DemandBatch
from repro.core.knapsack import (
    clear_solver_cache,
    solve_knapsack_arrays,
)
from repro.core.placement import PlanConfig, _weights_for
from repro.memory.presets import (
    dram,
    numa_emulated,
    nvm_bandwidth_scaled,
    nvm_latency_scaled,
    optane_pm,
    pcram,
    reram,
    stt_ram,
)
from repro.profiling.calibration import CalibrationResult

from tests.helpers import demand_batch
from tests.reference_weigher import weights_for_ref

DRAM = dram()
NVM = nvm_bandwidth_scaled(0.5)


def bits(x: float) -> bytes:
    """The IEEE-754 little-endian bytes of ``x`` — bitwise comparison."""
    return struct.pack("<d", x)


def assert_bitwise(vec: np.ndarray, ref: list[float]) -> None:
    assert vec.dtype == np.float64
    assert vec.shape == (len(ref),)
    for i, (a, b) in enumerate(zip(vec.tolist(), ref)):
        assert bits(a) == bits(b), f"lane {i}: {a!r} != {b!r}"


# ----------------------------------------------------------------------
# Demand strategies
# ----------------------------------------------------------------------
# Duplicate-heavy size pools repeat sizes within a batch; the bw_demand
# pool straddles the t1/t2 thresholds so batches mix all three
# sensitivity classes.  peak_of(NVM) is ~1e10-ish; cover both sides
# generously.
_SIZES = st.sampled_from([4096, 1 << 20, 1 << 22, 3 << 20, 1 << 26])
_COUNTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)
_BW = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)
_FRAC = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


_MEM_SECONDS = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))
_OFFSET = st.floats(min_value=-1.0, max_value=5.0, allow_nan=False)
#: Column name -> the strategy drawing one object's value.
_COLUMNS = {
    "size_bytes": _SIZES,
    "loads": _COUNTS,
    "stores": _COUNTS,
    "misses": _COUNTS,
    "bw_demand": _BW,
    "confidence": _FRAC,
    "mem_seconds": _MEM_SECONDS,
    "dram_frac": _FRAC,
    "in_dram": st.booleans(),
    "first_use_offset": _OFFSET,
}


@st.composite
def demand_columns(draw, min_size=0, max_size=12):
    """Per-object column lists for :func:`tests.helpers.demand_batch`."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return {
        name: draw(st.lists(value, min_size=n, max_size=n))
        for name, value in _COLUMNS.items()
    }


def demand_batches(min_size=0, max_size=12):
    return demand_columns(min_size, max_size).map(lambda cols: demand_batch(**cols))


@st.composite
def mixed_timing_batch(draw):
    """A batch holding at least one timed (``mem_seconds > 0``) and one
    untimed lane, in drawn order."""
    cols = draw(demand_columns(min_size=2))
    cols["mem_seconds"][:2] = [0.0, draw(st.floats(min_value=1e-9, max_value=10.0))]
    order = draw(st.permutations(range(len(cols["size_bytes"]))))
    return demand_batch(
        **{name: [values[i] for i in order] for name, values in cols.items()}
    )


_CFGS = st.builds(
    PlanConfig,
    distinguish_rw=st.booleans(),
    use_miss_counter=st.booleans(),
)
_FLAG_COMBOS = pytest.mark.parametrize(
    "distinguish_rw,use_miss_counter",
    [(True, True), (True, False), (False, True), (False, False)],
)


# ----------------------------------------------------------------------
# Machine strategies: device pairs and calibrations
# ----------------------------------------------------------------------
_NVM_PRESETS = st.sampled_from([
    stt_ram(), pcram(), reram(), optane_pm(), numa_emulated(),
    nvm_bandwidth_scaled(0.25), nvm_latency_scaled(4.0),
])
# Write-side scales below 1 make writes faster than reads — on the
# latency side that can drive the chase-based NVM time to <= 0 (the
# ratio guard) when the chase base is small.
_SCALES = st.sampled_from([0.05, 0.3, 1.0, 3.0, 20.0])


@st.composite
def asymmetric(draw, base):
    """``base`` scaled as a whole, then its write side scaled apart."""
    dev = base.scaled(latency_scale=draw(_SCALES), bandwidth_scale=draw(_SCALES))
    return replace(
        dev,
        write_latency_s=dev.write_latency_s * draw(_SCALES),
        write_bandwidth=dev.write_bandwidth * draw(_SCALES),
    )


_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
# Chase bases from far below to far above the preset latencies.
_LATENCY = st.sampled_from([1e-10, 2e-9, 1e-8, 1e-7, 1e-6])


@st.composite
def machine(draw):
    """(nvm, dram, calibration): a drawn device pair and a calibration
    with or without chase runs (per device) and a zero or positive
    chase bandwidth."""
    nvm = draw(asymmetric(draw(_NVM_PRESETS)))
    dev_d = draw(asymmetric(dram()))
    chase_latency = {}
    for dev in (dev_d, nvm):
        if draw(st.booleans()):
            chase_latency[dev.name] = draw(_LATENCY)
    calib = CalibrationResult(
        cf_bw=draw(_POSITIVE),
        cf_lat=draw(_POSITIVE),
        cf_bw_raw=draw(_POSITIVE),
        cf_lat_raw=draw(_POSITIVE),
        peak_bandwidth={nvm.name: draw(st.floats(min_value=1e8, max_value=1e12))},
        chase_bandwidth=draw(
            st.one_of(st.just(0.0), st.floats(min_value=1e6, max_value=1e11))
        ),
        chase_latency=chase_latency,
    )
    return nvm, dev_d, calib


# ----------------------------------------------------------------------
# Weigher: vector vs scalar reference
# ----------------------------------------------------------------------
class TestWeightsDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        batch=demand_batches(),
        cfg=_CFGS,
        pressure=st.sampled_from([0.0, 0.3, 1.0]),
        scale=st.sampled_from([1.0, 0.25, 2.0]),
    )
    def test_bitwise_equal(self, calibration_bw, batch, cfg, pressure, scale):
        vec = _weights_for(batch, NVM, DRAM, calibration_bw, cfg, pressure, scale)
        ref = weights_for_ref(batch, NVM, DRAM, calibration_bw, cfg, pressure, scale)
        assert_bitwise(vec, ref)

    @_FLAG_COMBOS
    @settings(max_examples=100, deadline=None)
    @given(
        mach=machine(),
        batch=mixed_timing_batch(),
        pressure=st.sampled_from([0.0, 0.3, 1.0]),
        scale=st.sampled_from([1.0, 0.25, 2.0]),
    )
    def test_bitwise_equal_on_drawn_machines(
        self, distinguish_rw, use_miss_counter, mach, batch, pressure, scale
    ):
        nvm, dev_d, calib = mach
        cfg = PlanConfig(distinguish_rw=distinguish_rw, use_miss_counter=use_miss_counter)
        vec = _weights_for(batch, nvm, dev_d, calib, cfg, pressure, scale)
        ref = weights_for_ref(batch, nvm, dev_d, calib, cfg, pressure, scale)
        assert_bitwise(vec, ref)

    @settings(max_examples=50, deadline=None)
    @given(batch=demand_batches(min_size=1), resident=st.booleans())
    def test_homogeneous_residency(self, calibration_bw, batch, resident):
        # Every object on one side: all resident (no lane pays a cost)
        # or all incoming (every lane does).
        batch = batch.with_placement(
            np.full(len(batch), resident), batch.first_use_offset
        )
        cfg = PlanConfig()
        vec = _weights_for(batch, NVM, DRAM, calibration_bw, cfg, 0.7)
        ref = weights_for_ref(batch, NVM, DRAM, calibration_bw, cfg, 0.7)
        assert_bitwise(vec, ref)

    def test_empty_batch(self, calibration_bw):
        batch = DemandBatch.empty().with_placement([], [])
        vec = _weights_for(batch, NVM, DRAM, calibration_bw, PlanConfig(), 0.0)
        assert vec.shape == (0,)


# ----------------------------------------------------------------------
# Knapsack: array front-end
# ----------------------------------------------------------------------
class TestKnapsackArrays:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-5.0, max_value=50.0, allow_nan=False),
            max_size=10,
        ),
        data=st.data(),
    )
    def test_matches_sequence_front_end(self, values, data):
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=1 << 22),
                min_size=len(values),
                max_size=len(values),
            )
        )
        cap = data.draw(st.integers(min_value=1, max_value=8 << 20))
        clear_solver_cache()
        arr = solve_knapsack_arrays(
            np.asarray(values), np.asarray(sizes, dtype=np.int64), cap
        )
        clear_solver_cache()
        seq = solve_knapsack_arrays(values, sizes, cap)
        assert arr == seq
