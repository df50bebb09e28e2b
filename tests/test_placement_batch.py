"""Differential suite for the SoA placement plane (PR 10 tentpole).

The array weigher (:func:`repro.core.placement._weights_for`) must be
*bitwise* identical to the retired scalar loop, which survives verbatim
in ``tests/reference_weigher.py``.  Hypothesis drives both over adversarial demand
batches — mixed sensitivity classes, zero-count objects, duplicate
sizes/load-fractions (the per-value memo paths), every config-flag
combination, and both residency mixes (the all-out fast path and the
masked scatter) — and every float is compared by its IEEE-754 bytes,
not by ``==``.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demand import DemandBatch
from repro.core.knapsack import solve_knapsack, solve_knapsack_arrays
from repro.core.models import ObjectStats
from repro.core.placement import ObjectDemand, PlanConfig, _weights_for
from repro.memory.presets import dram, nvm_bandwidth_scaled

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
# Duplicate-heavy pools exercise the per-value memos; the bw_demand pool
# straddles the t1/t2 thresholds so batches mix all three sensitivity
# classes.  peak_of(NVM) is ~1e10-ish; cover both sides generously.
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


@st.composite
def demand(draw, uid):
    stats = ObjectStats(
        uid=uid,
        size_bytes=draw(_SIZES),
        loads=draw(_COUNTS),
        stores=draw(_COUNTS),
        misses=draw(_COUNTS),
        bw_demand=draw(_BW),
        n_tasks=draw(st.integers(min_value=0, max_value=64)),
        confidence=draw(_FRAC),
        mem_seconds=draw(
            st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))
        ),
        dram_frac=draw(_FRAC),
    )
    return ObjectDemand(
        stats,
        in_dram=draw(st.booleans()),
        first_use_offset=draw(
            st.floats(min_value=-1.0, max_value=5.0, allow_nan=False)
        ),
    )


@st.composite
def demand_list(draw, min_size=0, max_size=12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return [draw(demand(uid)) for uid in range(1, n + 1)]


_CFGS = st.builds(
    PlanConfig,
    distinguish_rw=st.booleans(),
    use_miss_counter=st.booleans(),
)


# ----------------------------------------------------------------------
# Weigher: vector vs scalar reference
# ----------------------------------------------------------------------
class TestWeightsDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        demands=demand_list(),
        cfg=_CFGS,
        pressure=st.sampled_from([0.0, 0.3, 1.0]),
        scale=st.sampled_from([1.0, 0.25, 2.0]),
    )
    def test_bitwise_equal(self, calibration_bw, demands, cfg, pressure, scale):
        batch = DemandBatch.from_demands(demands)
        vec = _weights_for(batch, NVM, DRAM, calibration_bw, cfg, pressure, scale)
        ref = weights_for_ref(demands, NVM, DRAM, calibration_bw, cfg, pressure, scale)
        assert_bitwise(vec, ref)

    @settings(max_examples=50, deadline=None)
    @given(demands=demand_list(min_size=1), resident=st.booleans())
    def test_homogeneous_residency(self, calibration_bw, demands, resident):
        # Force every object to one side so both the all-out fast path
        # (scatter-is-identity) and the all-in early return are hit.
        for d in demands:
            d.in_dram = resident
        cfg = PlanConfig()
        batch = DemandBatch.from_demands(demands)
        vec = _weights_for(batch, NVM, DRAM, calibration_bw, cfg, 0.7)
        ref = weights_for_ref(demands, NVM, DRAM, calibration_bw, cfg, 0.7)
        assert_bitwise(vec, ref)

    def test_empty_batch(self, calibration_bw):
        vec = _weights_for(
            DemandBatch.from_demands([]), NVM, DRAM, calibration_bw, PlanConfig(), 0.0
        )
        assert vec.shape == (0,)

    @settings(max_examples=50, deadline=None)
    @given(demands=demand_list())
    def test_batch_round_trip(self, demands):
        # to_demands must reconstruct the list form bit-for-bit — it is
        # what feeds the reference weigher.
        batch = DemandBatch.from_demands(demands)
        back = batch.to_demands()
        assert len(back) == len(demands)
        for a, b in zip(demands, back):
            assert a.stats == b.stats
            assert a.in_dram == b.in_dram
            assert bits(a.first_use_offset) == bits(b.first_use_offset)


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
        arr = solve_knapsack_arrays(
            np.asarray(values), np.asarray(sizes, dtype=np.int64), cap, use_cache=False
        )
        seq = solve_knapsack(values, sizes, cap, use_cache=False)
        assert arr == seq
