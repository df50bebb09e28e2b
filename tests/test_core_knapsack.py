"""Knapsack solvers: unit tests plus property-based check against brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack import (
    clear_solver_cache,
    greedy_bounded,
    greedy_by_density,
    solve_knapsack,
)


def total(mask, values):
    return sum(v for v, keep in zip(values, mask) if keep)


def size_of(mask, sizes):
    return sum(s for s, keep in zip(sizes, mask) if keep)


class TestSolveKnapsack:
    def test_takes_everything_that_fits(self):
        mask = solve_knapsack([1.0, 2.0], [10, 20], capacity=100)
        assert mask == [True, True]

    def test_prefers_higher_value(self):
        mask = solve_knapsack([1.0, 10.0], [50, 50], capacity=50)
        assert mask == [False, True]

    def test_respects_capacity(self):
        values = [5.0, 4.0, 3.0]
        sizes = [40, 40, 40]
        mask = solve_knapsack(values, sizes, capacity=80)
        assert size_of(mask, sizes) <= 80
        assert total(mask, values) == pytest.approx(9.0)

    def test_skips_nonpositive_values(self):
        mask = solve_knapsack([-1.0, 0.0, 1.0], [10, 10, 10], capacity=100)
        assert mask == [False, False, True]

    def test_skips_oversized_items(self):
        mask = solve_knapsack([100.0, 1.0], [200, 10], capacity=100)
        assert mask == [False, True]

    def test_empty_inputs(self):
        assert solve_knapsack([], [], 100) == []
        assert solve_knapsack([1.0], [10], 0) == [False]

    def test_classic_instance(self):
        # values/weights from a standard 0/1 knapsack example
        values = [60.0, 100.0, 120.0]
        sizes = [10, 20, 30]
        mask = solve_knapsack(values, sizes, capacity=50, granularity=50)
        assert total(mask, values) == pytest.approx(220.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            solve_knapsack([1.0], [1, 2], 10)


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
        d = solve_knapsack(values, sizes, capacity=50, granularity=50)
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

    mask = solve_knapsack(values, sizes, capacity, granularity=capacity)
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
        exact-fingerprint hit alike) equals the ``use_cache=False``
        reference on the same instance.

        The patch sequence mutates one item at a time, so the memo holds
        near-identical instances whose fingerprints differ in one value.
        """
        clear_solver_cache()
        values = [v for v, _ in items]
        sizes = [s for _, s in items]
        instances = [(list(values), list(sizes))]
        for i, new_value in patches:
            values = list(values)
            values[i % len(values)] = new_value
            instances.append((list(values), list(sizes)))
        for vals, szs in instances:
            cold = solve_knapsack(vals, szs, capacity, use_cache=False)
            assert solve_knapsack(vals, szs, capacity) == cold
            # Second cached solve takes the exact-fingerprint memo path.
            assert solve_knapsack(vals, szs, capacity) == cold

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
