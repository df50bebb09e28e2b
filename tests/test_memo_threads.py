"""The process-global memos must survive concurrent use.

The digital-twin server runs jobs on a thread pool, so the knapsack
mask memo, the interned-workload memo and the placement weigher's
per-machine value memos are probed, bumped and evicted from several
threads at once.  Each test below hammers one memo from 8 threads with
a microsecond switch interval, over more keys than the memo holds (so
hits, bumps and evictions interleave), and asserts that no thread
raised and that the memo stayed within its bound.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.core.placement as placement
import repro.workloads.memo as workload_memo
from repro.core.knapsack import _MEMO_MAX, _memo, clear_solver_cache, solve_knapsack

N_THREADS = 8


def hammer(work, n_iter: int) -> list[BaseException]:
    """Run ``work(thread_index, i)`` for ``i < n_iter`` on every thread."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_THREADS)

    def body(t: int) -> None:
        barrier.wait()
        try:
            for i in range(n_iter):
                work(t, i)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=body, args=(t,)) for t in range(N_THREADS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        sys.setswitchinterval(old)
    return errors


def test_knapsack_memo_concurrent_hits_and_evictions():
    clear_solver_cache()
    n_keys = _MEMO_MAX + 32
    rng = np.random.default_rng(0)
    instances = [
        (rng.uniform(0.1, 10.0, 6).tolist(), rng.integers(1, 64, 6).tolist())
        for _ in range(n_keys)
    ]
    expected = [solve_knapsack(v, s, 128, use_cache=False) for v, s in instances]
    wrong: list[int] = []

    def work(t: int, i: int) -> None:
        k = (i * 7 + t * 13) % n_keys
        values, sizes = instances[k]
        if solve_knapsack(values, sizes, 128) != expected[k]:
            wrong.append(k)

    try:
        errors = hammer(work, 400)
        assert errors == []
        assert wrong == []
        assert len(_memo) <= _MEMO_MAX
    finally:
        clear_solver_cache()


def test_build_memo_concurrent_hits_and_evictions(monkeypatch):
    # The memo logic is under test, not graph construction: a stand-in
    # builder keeps each miss cheap.
    monkeypatch.setattr(
        workload_memo, "build", lambda name, **params: (name, params["n"])
    )
    workload_memo.clear_build_cache()
    n_keys = workload_memo._MEMO_MAX + 8
    wrong: list[int] = []

    def work(t: int, i: int) -> None:
        k = (i * 5 + t * 11) % n_keys
        if workload_memo.build_cached("stand-in", n=k) != ("stand-in", k):
            wrong.append(k)

    try:
        errors = hammer(work, 1500)
        assert errors == []
        assert wrong == []
        assert len(workload_memo._memo) <= workload_memo._MEMO_MAX
        stats = workload_memo.build_cache_stats()
        assert stats["hits"] > 0 and stats["misses"] > n_keys
    finally:
        workload_memo.clear_build_cache()


@pytest.mark.parametrize("memos_name", ["_RATIO_MEMOS", "_COST_MEMOS"])
def test_placement_value_memos_concurrent(memos_name):
    memos = getattr(placement, memos_name)
    n_keys = placement._MEMO_KEYS_MAX + 16
    memos.clear()

    def work(t: int, i: int) -> None:
        k = (i * 3 + t * 7) % n_keys
        m = placement._per_value_memo(memos, ("machine", k))
        m[float(k)] = (1.0, 2.0)

    try:
        errors = hammer(work, 1500)
        assert errors == []
        assert len(memos) <= placement._MEMO_KEYS_MAX
    finally:
        memos.clear()
