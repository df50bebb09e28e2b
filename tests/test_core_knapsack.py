"""Knapsack solvers: unit tests plus property-based check against brute force."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.knapsack import (
    _backtrack,
    _dp_rows,
    clear_solver_cache,
    greedy_bounded,
    greedy_by_density,
    solve_knapsack_arrays,
    solver_cache_stats,
)


def total(mask, values):
    return sum(v for v, keep in zip(values, mask) if keep)


def size_of(mask, sizes):
    return sum(s for s, keep in zip(sizes, mask) if keep)


class TestSolveKnapsack:
    def test_takes_everything_that_fits(self):
        mask = solve_knapsack_arrays([1.0, 2.0], [10, 20], capacity=100)
        assert mask == [True, True]

    def test_prefers_higher_value(self):
        mask = solve_knapsack_arrays([1.0, 10.0], [50, 50], capacity=50)
        assert mask == [False, True]

    def test_respects_capacity(self):
        values = [5.0, 4.0, 3.0]
        sizes = [40, 40, 40]
        mask = solve_knapsack_arrays(values, sizes, capacity=80)
        assert size_of(mask, sizes) <= 80
        assert total(mask, values) == pytest.approx(9.0)

    def test_skips_nonpositive_values(self):
        mask = solve_knapsack_arrays([-1.0, 0.0, 1.0], [10, 10, 10], capacity=100)
        assert mask == [False, False, True]

    def test_skips_oversized_items(self):
        mask = solve_knapsack_arrays([100.0, 1.0], [200, 10], capacity=100)
        assert mask == [False, True]

    def test_empty_inputs(self):
        assert solve_knapsack_arrays([], [], 100) == []
        assert solve_knapsack_arrays([1.0], [10], 0) == [False]

    def test_classic_instance(self):
        # values/weights from a standard 0/1 knapsack example
        values = [60.0, 100.0, 120.0]
        sizes = [10, 20, 30]
        mask = solve_knapsack_arrays(values, sizes, capacity=50, granularity=50)
        assert total(mask, values) == pytest.approx(220.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            solve_knapsack_arrays([1.0], [1, 2], 10)


class TestGreedy:
    def test_density_order(self):
        # item 0: density 1.0; item 1: density 2.0
        mask = greedy_by_density([10.0, 10.0], [10, 5], capacity=5)
        assert mask == [False, True]

    def test_greedy_suboptimal_case_dp_wins(self):
        """The textbook case where density greedy fails and DP succeeds."""
        values = [60.0, 100.0, 120.0]
        sizes = [10, 20, 30]
        g = greedy_by_density(values, sizes, capacity=50)
        d = solve_knapsack_arrays(values, sizes, capacity=50, granularity=50)
        assert total(d, values) >= total(g, values)
        assert total(g, values) == pytest.approx(160.0)


@settings(max_examples=100, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.floats(0.1, 100.0), st.integers(1, 50)), min_size=1, max_size=10
    ),
    capacity=st.integers(1, 120),
)
def test_dp_matches_bruteforce_and_dominates_greedy(items, capacity):
    """Property: with exact granularity the DP matches brute force, and
    both DP and greedy stay within capacity."""
    values = [v for v, _ in items]
    sizes = [s for _, s in items]

    best = 0.0
    for picks in itertools.product([0, 1], repeat=len(items)):
        sz = sum(s for s, p in zip(sizes, picks) if p)
        if sz <= capacity:
            best = max(best, sum(v for v, p in zip(values, picks) if p))

    mask = solve_knapsack_arrays(values, sizes, capacity, granularity=capacity)
    gmask = greedy_by_density(values, sizes, capacity)
    assert size_of(mask, sizes) <= capacity
    assert size_of(gmask, sizes) <= capacity
    assert total(mask, values) == pytest.approx(best, rel=1e-9)
    assert total(gmask, values) <= best + 1e-9


class TestIncrementalSolver:
    """The exact-fingerprint memo must be invisible in the results."""

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.floats(0.1, 100.0), st.integers(1, 60)),
            min_size=2,
            max_size=16,
        ),
        patches=st.lists(
            st.tuples(st.integers(0, 15), st.floats(0.1, 100.0)), max_size=4
        ),
        capacity=st.integers(1, 150),
    )
    def test_memo_matches_uncached(self, items, patches, capacity):
        """Property: every solve through the memo (first miss and later
        exact-fingerprint hit alike) equals a solve on an empty memo.

        The patch sequence mutates one item at a time, so the memo holds
        near-identical instances whose fingerprints differ in one value.
        """
        values = [v for v, _ in items]
        sizes = [s for _, s in items]
        instances = [(list(values), list(sizes))]
        for i, new_value in patches:
            values = list(values)
            values[i % len(values)] = new_value
            instances.append((list(values), list(sizes)))
        colds = []
        for vals, szs in instances:
            clear_solver_cache()
            colds.append(solve_knapsack_arrays(vals, szs, capacity))
        clear_solver_cache()
        for (vals, szs), cold in zip(instances, colds):
            assert solve_knapsack_arrays(vals, szs, capacity) == cold
            # Second cached solve takes the exact-fingerprint memo path.
            assert solve_knapsack_arrays(vals, szs, capacity) == cold

    @settings(max_examples=100, deadline=None)
    @given(
        items=st.lists(
            st.tuples(st.floats(0.1, 100.0), st.integers(1, 50)),
            min_size=1,
            max_size=10,
        ),
        capacity=st.integers(1, 120),
    )
    def test_greedy_bounded_within_half_of_optimum(self, items, capacity):
        """Property: the bounded greedy (density fill vs. best single
        item) achieves at least half the brute-force 0/1 optimum — the
        guarantee the auto-route to greedy for oversized DP tables
        relies on."""
        values = [v for v, _ in items]
        sizes = [s for _, s in items]
        best = 0.0
        for picks in itertools.product([0, 1], repeat=len(items)):
            sz = sum(s for s, p in zip(sizes, picks) if p)
            if sz <= capacity:
                best = max(best, sum(v for v, p in zip(values, picks) if p))
        mask = greedy_bounded(values, sizes, capacity)
        assert size_of(mask, sizes) <= capacity
        assert total(mask, values) >= 0.5 * best - 1e-9


def dp_mask(values, sizes, capacity, granularity):
    """The DP and backtrack on the solver's candidates, with no other route."""
    v = np.asarray(values, dtype=np.float64)
    s = np.asarray(sizes, dtype=np.int64)
    unit = max(1, capacity // granularity)
    cap_units = capacity // unit
    idx = np.flatnonzero((v > 0) & (s > 0) & (s <= capacity))
    w = -(-s[idx] // unit)
    return _backtrack(_dp_rows(w, v[idx], cap_units), idx.tolist(), w, len(v), cap_units)


@st.composite
def one_size_instances(draw):
    """Knapsack instances whose candidates mostly share one DP size.

    Raw sizes are drawn anywhere inside one unit bucket, so they need not
    be multiples of the unit.  The value shapes put exact ties, 1-ulp
    near-ties and vanishing values at the top-k boundary; ``all_fit``
    leaves room for every candidate, ``k0`` draws a size above
    ``capacity // unit * unit`` that the DP can never take, and
    ``two_sizes`` mixes in a second size so the DP must run.
    """
    shape = draw(
        st.sampled_from(["free", "tie", "near_tie", "vanish", "all_fit", "k0", "two_sizes"])
    )
    n = draw(st.integers(1, 12))
    if shape == "k0":
        granularity = draw(st.sampled_from([7, 64]))
        unit = draw(st.integers(granularity + 1, 4 * granularity))
        capacity = unit * granularity + draw(st.integers(1, granularity - 1))
        lo, hi = granularity * unit + 1, capacity
    else:
        granularity = draw(st.sampled_from([1, 7, 64, 512]))
        capacity = draw(st.integers(1, 4096))
        unit = max(1, capacity // granularity)
        cap_units = capacity // unit
        top_units = max(1, cap_units // n) if shape == "all_fit" else cap_units
        units = draw(st.integers(1, top_units))
        lo, hi = (units - 1) * unit + 1, min(units * unit, capacity)
    sizes = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    if shape == "two_sizes":
        sizes[0] = draw(st.integers(1, capacity))
    if shape == "tie":
        values = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    elif shape == "near_tie":
        base = draw(st.floats(0.5, 100.0))
        steps = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        values = [base if k == 0 else float(np.nextafter(base, k * np.inf)) for k in steps]
    elif shape == "vanish":
        values = draw(
            st.lists(st.sampled_from([1e6, 1.0, 1e-300, 5e-324]), min_size=n, max_size=n)
        )
    else:
        values = draw(
            st.lists(
                st.one_of(st.floats(0.001, 100.0), st.sampled_from([0.0, -1.0])),
                min_size=n,
                max_size=n,
            )
        )
    return values, sizes, capacity, granularity


def test_one_size_route_matches_dp():
    """Property: the solver's mask equals the DP's on every draw, whether
    the one-size top-k route answers or its guard hands over to the DP;
    each of the two routes is taken at least once."""
    routes = Counter()

    @settings(max_examples=400, deadline=None, database=None)
    @given(inst=one_size_instances())
    # Everything fits, but the DP never adds 1e-300 to 1e6.
    @example(inst=([1e6, 1e-300], [1, 1], 2, 2))
    # A 1-ulp gap at the cut: the DP's sums round 7 + (1 - ulp) up to 8.
    @example(inst=([1.0] * 7 + [float(np.nextafter(1.0, 0.0)), 1.0], [1] * 9, 8, 7))
    def check(inst):
        values, sizes, capacity, granularity = inst
        clear_solver_cache()  # the DP route solves; no memo hit answers it
        got = solve_knapsack_arrays(values, sizes, capacity, granularity)
        routes["topk" if solver_cache_stats()["uniform_topk"] else "dp"] += 1
        assert got == dp_mask(values, sizes, capacity, granularity)

    check()
    assert routes["topk"] > 0 and routes["dp"] > 0, routes


def test_uniform_ties_count_exact_ties_at_the_cut():
    """A one-size instance whose values at the cut are bitwise equal goes
    to the DP and counts as a tie; a near-tie (1 ulp) goes to the DP
    without counting; a clear gap takes the top-k route."""
    near = float(np.nextafter(2.0, 0.0))
    cases = (
        ([3.0, 2.0, 2.0, 1.0], {"uniform_ties": 1, "solves": 1, "uniform_topk": 0}),
        ([3.0, 2.0, near, 1.0], {"uniform_ties": 0, "solves": 1, "uniform_topk": 0}),
        ([3.0, 2.0, 1.0, 1.0], {"uniform_ties": 0, "solves": 0, "uniform_topk": 1}),
    )
    for values, want in cases:
        clear_solver_cache()
        mask = solve_knapsack_arrays(values, [1] * len(values), 2, 2)
        assert mask == dp_mask(values, [1] * len(values), 2, 2)
        stats = solver_cache_stats()
        assert {k: stats[k] for k in want} == want, values
