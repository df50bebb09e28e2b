"""0/1 knapsack solvers for the placement decision.

Maximize total weight of DRAM-resident objects subject to DRAM capacity.
Sizes are discretized to ``granularity`` buckets (ceil — a solution never
exceeds real capacity) and solved by :func:`solve_knapsack_arrays` with
the classic DP, vectorized over the capacity axis with numpy; a
value-density greedy is provided both as the ablation comparator and as
the fallback for item counts where the DP table would be wasteful.

The placement manager re-solves every adaptation epoch:

- when every candidate has the same size in DP units (heat's equal-sized
  tiles), the optimum is the ``cap_units // size`` largest values; a
  stable top-k returns it without the DP unless the boundary gap is
  within the DP's float rounding, in which case the DP decides, so the
  mask is always the one the DP would return;
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
  instance sent back by the top-k guard has ``g`` equal to its size);
- the backtracking ``keep`` table is bit-packed (one bit per DP cell
  instead of a numpy bool byte), cutting its memory traffic 8x;
- instances whose DP table would exceed :data:`AUTO_GREEDY_CELLS` cells
  are routed to :func:`greedy_bounded`, whose value is provably >= 1/2 of
  the optimum (density greedy vs. best single item, whichever is better).

The memo is a thread-safe LRU bounded at :data:`_MEMO_MAX` masks, and a
hit returns exactly the mask the from-scratch solve produced.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.util.lru import BoundedLRU
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
#: ``uniform_ties`` counts the one-size instances sent back to the DP
#: whose values at the cut are bitwise equal (the rest of the fallbacks
#: are near-ties within the DP's rounding).
_stats = {
    "exact_hits": 0,
    "solves": 0,
    "greedy_routed": 0,
    "uniform_topk": 0,
    "uniform_ties": 0,
}


def clear_solver_cache() -> None:
    """Drop the memoized masks and zero the counters (tests, long-lived processes)."""
    _memo.clear()
    for k in _stats:
        _stats[k] = 0


def solver_cache_stats() -> dict[str, int]:
    """Exact-memo hits, DP solves, greedy routes, one-size top-k routes
    and one-size exact ties sent to the DP (observability)."""
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
        mask = _uniform_topk(idx_arr, v, int(w[0]), n, cap_units)
        if mask is not None:
            _stats["uniform_topk"] += 1
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


def _uniform_topk(
    idx_arr: np.ndarray,
    v: np.ndarray,
    unit_size: int,
    n: int,
    cap_units: int,
) -> list[bool] | None:
    """The DP's mask for candidates that all weigh ``unit_size`` units.

    Returns ``None`` when the float DP could pick another set; the caller
    then runs the DP.
    """
    k = cap_units // unit_size
    mask = [False] * n
    if k == 0:
        return mask
    order = np.argsort(-v, kind="stable")
    top = order[:k]
    kept = v[top]
    gap = kept[-1] - v[order[k]] if k < order.size else kept[-1]
    # Each DP cell is a float sum of at most len(top) + 1 positive terms
    # in item order, no larger than sum(kept), so it is off its exact value
    # by under (len(top) + 1) * eps * sum(kept).  Every set but the top k
    # is exactly at least ``gap`` short (a swap loses the boundary gap, a
    # drop a kept value), so a gap above twice that error leaves the
    # top k the DP's only pick; the factor 4 also covers the rounding of
    # this test.  A tie at the boundary (gap 0) or a value that vanishes
    # in the running sum (the DP's strict ``>`` never takes it) falls back.
    if gap <= 4 * (top.size + 1) * np.finfo(np.float64).eps * float(kept.sum()):
        if k < order.size and gap == 0.0:
            _stats["uniform_ties"] += 1
        return None
    for i in idx_arr[top].tolist():
        mask[i] = True
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
    add, greater, copyto = np.add, np.greater, np.copyto
    for k, wk in enumerate(w.tolist()):
        if wk <= cap_units:
            span = cap_units + 1 - wk
            cand = cand_buf[:span]
            add(dp[:span], v_l[k], out=cand)
            tail = dp[wk:]
            better = row_bits[k, wk:]
            greater(cand, tail, out=better)
            copyto(tail, cand, where=better)
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
    greedy_value = sum(values[i] for i in range(len(values)) if mask[i])
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
