"""0/1 knapsack solvers for the placement decision.

Maximize total weight of DRAM-resident objects subject to DRAM capacity.
Sizes are discretized to ``granularity`` buckets (ceil — a solution never
exceeds real capacity) and solved by :func:`solve_knapsack_arrays` with
the classic DP, vectorized over the capacity axis with numpy; a
value-density greedy is provided both as the ablation comparator and as
the fallback for item counts where the DP table would be wasteful.

The placement manager re-solves every adaptation epoch:

- when every candidate has the same size in DP units (heat's equal-sized
  tiles), the optimum is the ``cap_units // size`` largest values, and
  :func:`_one_size` returns the DP's own mask without building the DP
  table: a stable top-k when the gap at the cut exceeds the DP's float
  rounding, else the DP recurrence run over the cut's near-tie group
  only (``r + 1`` states for its ``r`` free slots), in index order, which
  reproduces the DP's rounding bit for bit; only a group that reaches a
  value within the rounding bound of zero goes back to the DP;
- an exact-fingerprint memo returns the cached keep-mask when the whole
  (values, sizes, capacity) instance of a DP solve repeats (it does
  across what-if variants and repeated specs; a near-identical instance
  is re-solved from scratch, because the weigher reorders and re-values
  candidates every replan, so a changed instance almost never shares a
  DP prefix);
- a DP solve divides the sizes and the capacity by the sizes' gcd ``g``
  (after the memo key is built): every subset's size is a multiple of
  ``g``, so each DP row is a function of ``cell // g``, and the narrowed
  table — ``cap_units // g + 1`` cells — holds the full table's values
  and keep bits at every ``g``-th cell, giving the same mask (a one-size
  instance sent back by the group pass has ``g`` equal to its size);
- the backtracking ``keep`` table is bit-packed (one bit per DP cell
  instead of a numpy bool byte), cutting its memory traffic 8x;
- instances whose DP table would exceed :data:`AUTO_GREEDY_CELLS` cells
  are routed to :func:`greedy_bounded`, whose value is provably >= 1/2 of
  the optimum (density greedy vs. best single item, whichever is better).

The memo is a thread-safe LRU bounded at :data:`_MEMO_MAX` masks, and a
hit returns exactly the mask the from-scratch solve produced.
"""

from __future__ import annotations

import sys
from typing import Any, Sequence

import numpy as np

from repro.util.lru import BoundedLRU
from repro.util.numeric import running_total
from repro.util.validation import require

__all__ = [
    "solve_knapsack_arrays",
    "greedy_by_density",
    "greedy_bounded",
    "clear_solver_cache",
    "solver_cache_stats",
    "export_cache_metrics",
    "AUTO_GREEDY_CELLS",
]

#: DP-table cell budget (candidate items x capacity units).  Above it the
#: exact table stops paying for itself and the 1/2-approximate greedy is
#: used instead.  Far beyond anything the experiment suite produces (the
#: tier-1 instances are ~1e5 cells), so routing never changes their results.
AUTO_GREEDY_CELLS = 4_000_000

_MEMO_MAX = 128

#: exact instance fingerprint -> keep-mask
_memo: BoundedLRU[Any, list[bool]] = BoundedLRU(_MEMO_MAX)
#: ``uniform_topk`` counts the one-size instances answered by the top-k,
#: ``uniform_group`` those answered by the cut group's pass; the rest of
#: the one-size instances count under ``solves`` or ``exact_hits``.
_stats = {
    "exact_hits": 0,
    "solves": 0,
    "greedy_routed": 0,
    "uniform_topk": 0,
    "uniform_group": 0,
}


def clear_solver_cache() -> None:
    """Drop the memoized masks and zero the counters (tests, long-lived processes)."""
    _memo.clear()
    for k in _stats:
        _stats[k] = 0


def solver_cache_stats() -> dict[str, int]:
    """Exact-memo hits, DP solves, greedy routes, and one-size instances
    answered by the top-k or by the cut group's pass (observability)."""
    return dict(_stats)


def export_cache_metrics(registry) -> None:
    """Refresh the solver-cache counters into a metrics registry.

    Process-global cache warmth is deliberately kept *out* of per-run
    telemetry exports (they are pinned byte-identical for identical
    specs); callers that own a long-lived registry — the digital-twin
    server's ``/metrics`` — refresh these gauges at scrape time instead.
    """
    for stat, value in sorted(_stats.items()):
        registry.gauge(
            "planner_knapsack_cache",
            labels={"stat": stat},
            help="Knapsack solver cache health (process-global counters)",
        ).set(value)


def solve_knapsack_arrays(
    values: np.ndarray,
    sizes: np.ndarray,
    capacity: int,
    granularity: int = 512,
) -> list[bool]:
    """Exact (up to discretization) 0/1 knapsack; returns a keep-mask.

    ``values`` and ``sizes`` are numpy columns or sequences.  Items with
    non-positive value or size exceeding capacity are never taken.
    ``granularity`` bounds the DP table's capacity axis; sizes are
    rounded *up* so the selection always fits the true capacity.
    """
    v_all = np.asarray(values, dtype=np.float64)
    s_all = np.asarray(sizes, dtype=np.int64)
    n = int(v_all.shape[0])
    require(int(s_all.shape[0]) == n, "values and sizes must have equal length")
    if n == 0 or capacity <= 0:
        return [False] * n

    unit = max(1, int(capacity) // int(granularity))
    cap_units = int(capacity) // unit
    if cap_units == 0:
        return [False] * n

    # Candidate filter: positive value and fits at all.  Vectorized — the
    # exact-memo fast path below still needs (idx, w, v) for its
    # fingerprint, so this runs on every call, hit or miss.
    idx_arr = np.flatnonzero((v_all > 0) & (s_all > 0) & (s_all <= capacity))
    if idx_arr.size == 0:
        return [False] * n

    if idx_arr.size * cap_units > AUTO_GREEDY_CELLS:
        _stats["greedy_routed"] += 1
        return greedy_bounded(v_all, s_all, capacity)

    w = -(-s_all[idx_arr] // unit)  # ceil; floor-div + negate, as int math
    v = v_all[idx_arr]

    if int(w.min()) == int(w.max()):
        mask = _one_size(idx_arr, v, int(w[0]), n, cap_units)
        if mask is not None:
            return mask

    key = (int(capacity), int(granularity), n, idx_arr.tobytes(), w.tobytes(), v.tobytes())
    cached = _memo.get(key)
    if cached is not None:
        _stats["exact_hits"] += 1
        return list(cached)

    _stats["solves"] += 1
    # Every subset's size is a multiple of the sizes' gcd, so each DP row
    # is a function of ``cell // g``: the narrowed table is the full one
    # read at every g-th cell, and its backtrack takes the same items.
    g = int(np.gcd.reduce(w))
    w //= g
    cap_units //= g
    mask = _backtrack(_dp_rows(w, v, cap_units), idx_arr.tolist(), w, n, cap_units)
    _memo.put(key, mask)
    return list(mask)


def _one_size(
    idx_arr: np.ndarray,
    v: np.ndarray,
    unit_size: int,
    n: int,
    cap_units: int,
) -> list[bool] | None:
    """The DP's mask for candidates that all weigh ``unit_size`` units.

    Returns ``None`` when the cut's group reaches a value within the
    rounding bound of zero; the caller then runs the DP.
    """
    k = cap_units // unit_size
    if k == 0:
        _stats["uniform_topk"] += 1
        return [False] * n
    order = np.argsort(-v, kind="stable")
    ranked = v[order]
    top = min(k, ranked.size)
    # Each DP cell is a float sum of at most top + 1 positive terms in item
    # order, no larger than sum(top-k), so it is off its exact value by
    # under (top + 1) * eps * sum(top-k); the factor 4 covers twice that
    # plus the rounding of the gap tests.  The gap after ranked[i] is
    # ranked[i] minus the next value, or minus 0 (not taking) for the last.
    bound = 4 * (top + 1) * sys.float_info.epsilon * float(ranked[:top].sum())
    cut = float(ranked[top - 1]) - (float(ranked[top]) if top < ranked.size else 0.0)
    if cut > bound:
        # Every set but the top k is exactly more than the bound short.
        _stats["uniform_topk"] += 1
        keep = np.zeros(n, dtype=np.bool_)
        keep[idx_arr[order[:top]]] = True
        return keep.tolist()
    gaps = ranked.copy()
    gaps[:-1] -= ranked[1:]
    wide = gaps > bound
    # The cut's group is ranked[lo:hi + 1], the maximal run around the cut
    # whose neighbouring gaps are all within the bound.
    lo_wide = np.flatnonzero(wide[: top - 1])
    lo = int(lo_wide[-1]) + 1 if lo_wide.size else 0
    hi = top - 1 + int(wide[top - 1 :].argmax())
    if not wide[hi]:
        # The run reaches 0: a value that vanishes in the running sum is
        # one the DP's strict ``>`` may never take.
        return None
    _stats["uniform_group"] += 1
    return _group_pass(idx_arr, v, order, lo, hi, k - lo, [False] * n)


def _group_pass(
    idx_arr: np.ndarray,
    v: np.ndarray,
    order: np.ndarray,
    lo: int,
    hi: int,
    slots: int,
    mask: list[bool],
) -> list[bool]:
    """The DP's choice of ``slots`` items of the group ``order[lo:hi + 1]``,
    with every item ranked above it kept and every item below left out.

    Why this is the DP's mask: float rounding is monotone, so
    ``fl(max(a, b) + x) = max(fl(a + x), fl(b + x))``, and a DP cell is
    the largest left-to-right float sum over the subsets it allows.  A
    subset that drops an item above the group, or takes one below it, is
    exactly more than the bound short of one that does neither, so it is
    short in floats too.  On the backtrack's path every comparison is then
    either decided by that margin or compares the same float sums as this
    pass, whose state ``t`` holds the items above the group so far plus
    the best ``t`` group items.  The pass runs the DP recurrence over
    those ``slots + 1`` states in index order: the items above the group
    before its first item are one scalar sum, one inside the span adds its
    value to every state, a group item makes the strict-``>`` take/skip
    step, and items after the group's last item are skipped (the backtrack
    takes each one above the group, so only the group's keep bits are
    read).
    """
    pos = np.sort(order[: hi + 1])  # the group and the items above it, in index order
    in_group = np.zeros(v.size, dtype=bool)
    in_group[order[lo : hi + 1]] = True
    flags = in_group[pos]
    at = np.flatnonzero(flags)
    first, last = int(at[0]), int(at[-1]) + 1
    base = 0.0
    for x in v[pos[:first]].tolist():
        base += x  # left to right, as the DP adds (``sum`` compensates)
    states = np.full(slots + 1, base)
    cand = np.empty(slots, dtype=np.float64)
    lower, upper = states[:slots], states[1:]
    add, greater, maximum = np.add, np.greater, np.maximum
    steps = []
    span = pos[first:last]
    for j, x, grouped in zip(span.tolist(), v[span].tolist(), flags[first:last].tolist()):
        if grouped:
            add(lower, x, out=cand)
            better = greater(cand, upper)
            maximum(upper, cand, out=upper)  # the copy where ``better``: no -0.0 or NaN here
            steps.append((j, better))
        else:
            add(states, x, out=states)
    idx_l = idx_arr.tolist()
    for j in pos[~flags].tolist():
        mask[idx_l[j]] = True
    t = slots
    for j, better in reversed(steps):
        if better[t - 1]:
            mask[idx_l[j]] = True
            t -= 1
            if t == 0:
                break
    return mask


def _dp_rows(w: np.ndarray, v: np.ndarray, cap_units: int) -> np.ndarray:
    """Run the DP, returning the bit-packed keep rows (one per item).

    The per-item keep bits accumulate into one bool matrix packed in a
    single ``np.packbits`` call after the loop (8 bytes -> 1 bit, one C
    pass) instead of one small pack per item; the item loop itself is
    down to three ufunc calls writing into preallocated buffers.  Rows
    for oversized items stay all-zero without touching the matrix.
    """
    dp = np.zeros(cap_units + 1, dtype=np.float64)
    row_bits = np.zeros((len(w), cap_units + 1), dtype=bool)
    cand_buf = np.empty(cap_units + 1, dtype=np.float64)
    v_l = v.tolist()  # Python floats are exact float64; avoids np scalars
    add, greater, maximum = np.add, np.greater, np.maximum
    for k, wk in enumerate(w.tolist()):
        if wk <= cap_units:
            span = cap_units + 1 - wk
            cand = cand_buf[:span]
            add(dp[:span], v_l[k], out=cand)
            tail = dp[wk:]
            better = row_bits[k, wk:]
            greater(cand, tail, out=better)
            # The copy where ``better``: every cell is a sum of positive
            # values from 0.0 and ``cand = dp + v`` with ``v > 0``, so no
            # -0.0 or NaN meets the max, which then keeps ``tail`` exactly
            # where ``cand > tail`` fails.
            maximum(tail, cand, out=tail)
    return np.packbits(row_bits, axis=1)


def _backtrack(
    keep_rows: np.ndarray,
    idx: list[int],
    w: np.ndarray,
    n: int,
    cap_units: int,
) -> list[bool]:
    """Recover the keep-mask from the bit-packed rows.

    The row matrix is flattened into one contiguous ``bytes`` blob up
    front (every row has the same packed length), so the sequential bit
    probe walks pure-Python ints instead of indexing ``m`` small uint8
    arrays.
    """
    mask = [False] * n
    if not idx:
        return mask
    row_len = (cap_units + 8) >> 3
    blob = keep_rows.tobytes()
    w_l = w.tolist()
    c = cap_units
    for k in range(len(idx) - 1, -1, -1):
        if (blob[k * row_len + (c >> 3)] >> (7 - (c & 7))) & 1:
            mask[idx[k]] = True
            c -= w_l[k]
    return mask


def greedy_by_density(
    values: Sequence[float],
    sizes: Sequence[int],
    capacity: int,
) -> list[bool]:
    """Value-per-byte greedy fill (the ablation comparator)."""
    n = len(values)
    require(len(sizes) == n, "values and sizes must have equal length")
    cand = [i for i in range(n) if values[i] > 0 and 0 < sizes[i] <= capacity]
    mask = [False] * n
    if not cand:
        return mask
    # Same ordering as sorted(key=(-v/s, s, i)): np.lexsort is stable and
    # ``cand`` is already index-ascending, so ties fall back to size, then
    # index, with identical float comparisons.
    v = np.array([values[i] for i in cand], dtype=np.float64)
    s = np.array([float(sizes[i]) for i in cand], dtype=np.float64)
    order = np.lexsort((s, -(v / s)))
    remaining = int(capacity)
    for j in order:
        i = cand[j]
        if sizes[i] <= remaining:
            mask[i] = True
            remaining -= int(sizes[i])
    return mask


def greedy_bounded(
    values: Sequence[float],
    sizes: Sequence[int],
    capacity: int,
) -> list[bool]:
    """Density greedy with the classic best-single-item fix.

    ``max(greedy value, best single feasible item)`` is >= 1/2 of the 0/1
    optimum (the greedy fill plus the first rejected item bound the LP
    relaxation), which plain density greedy alone cannot guarantee.  Used
    as the auto-route target for instances too large for the exact DP.
    """
    mask = greedy_by_density(values, sizes, capacity)
    greedy_value = running_total(values[i] for i in range(len(values)) if mask[i])
    best_i = -1
    best_v = 0.0
    for i in range(len(values)):
        if values[i] > best_v and 0 < sizes[i] <= capacity:
            best_i, best_v = i, values[i]
    if best_v > greedy_value and best_i >= 0:
        single = [False] * len(values)
        single[best_i] = True
        return single
    return mask
