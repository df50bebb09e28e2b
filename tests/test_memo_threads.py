"""The process-global memos must survive concurrent use.

The digital-twin server runs jobs on a thread pool, so the knapsack
mask memo and the interned-workload memo are probed, bumped and evicted
from several threads at once.  Each memo test below hammers one memo
from 8 threads with a microsecond switch interval, over more keys than
the memo holds (so hits, bumps and evictions interleave), and asserts
that no thread raised and that the memo stayed within its bound.  The
on-disk result cache and a graph's shared snapshot are exercised the
same way.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np

import repro.experiments.cache as cache_module
import repro.workloads.memo as workload_memo
from repro.core.knapsack import _MEMO_MAX, _memo, clear_solver_cache, solve_knapsack_arrays

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
    expected = []
    for values, sizes in instances:
        clear_solver_cache()
        expected.append(solve_knapsack_arrays(values, sizes, 128))
    clear_solver_cache()
    wrong: list[int] = []

    def work(t: int, i: int) -> None:
        k = (i * 7 + t * 13) % n_keys
        values, sizes = instances[k]
        if solve_knapsack_arrays(values, sizes, 128) != expected[k]:
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


def test_result_cache_concurrent_puts_of_one_key(tmp_path, monkeypatch):
    """Two pool threads (one pid) storing the same key, e.g. two stream
    jobs sharing a tenant's closed spec: each writer needs its own temp
    file, or the second ``os.replace`` finds the shared one gone."""
    cache = cache_module.ResultCache(tmp_path)
    both_written = threading.Barrier(2, timeout=10)
    real_replace = os.replace

    def replace_once_both_wrote(src, dst):
        both_written.wait()
        real_replace(src, dst)

    monkeypatch.setattr(cache_module.os, "replace", replace_once_both_wrote)
    payload = {"makespan": 1.5, "rows": list(range(64))}
    errors: list[BaseException] = []

    def put() -> None:
        try:
            cache.put("spec", payload)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=put) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    monkeypatch.undo()
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert cache.get("spec") == payload
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_result_cache_size_skips_entries_vanishing_mid_scan(tmp_path, monkeypatch):
    """``stats()`` (served by ``/healthz``) sums entry sizes; an entry a
    concurrent prune removes between the listing and its ``stat()`` is
    skipped, not an error."""
    cache = cache_module.ResultCache(tmp_path)
    cache.put("kept", {"x": 1})
    cache.put("pruned", {"x": 2})
    listing = list(cache._all_entries())
    (tmp_path / "pruned.json").unlink()  # a prune lands after the listing
    monkeypatch.setattr(cache, "_all_entries", lambda: iter(listing))
    assert cache.stats()["size_bytes"] == (tmp_path / "kept.json").stat().st_size


def test_whatif_variants_share_one_interned_graph():
    """What-if variants (DRAM size, NVM bandwidth, policy) on one
    interned graph whose snapshot no run has built yet, run from several
    threads at once: every payload is byte-identical to the same variant
    run serially."""
    from repro.experiments.runner import run_and_summarize, workload_params
    from repro.experiments.spec import RunSpec
    from repro.memory.presets import nvm_bandwidth_scaled
    from repro.util.units import MIB

    specs = [
        RunSpec(
            workload="heat",
            policy=policy,
            nvm=nvm_bandwidth_scaled(bw),
            dram_capacity=int(mib * MIB),
        )
        for policy, bw, mib in (
            ("tahoe", 0.5, 64), ("tahoe", 0.25, 32), ("xmem", 0.5, 48), ("nvm-only", 0.5, 64)
        )
    ]

    def payload(spec) -> str:
        return json.dumps(run_and_summarize(spec).to_payload(), sort_keys=True)

    def intern():
        # None of the variants partitions, so they share one graph.
        return workload_memo.build_cached(
            "heat", partition_max_bytes=None, **workload_params("heat", True)
        )

    workload_memo.clear_build_cache()
    expected = [payload(spec) for spec in specs]
    workload_memo.clear_build_cache()
    graph = intern().graph
    got: list[tuple[int, str]] = []
    errors: list[BaseException] = []
    barrier = threading.Barrier(4)

    def body(t: int) -> None:
        barrier.wait()
        try:
            for j in range(len(specs)):
                k = (t + j) % len(specs)
                got.append((k, payload(specs[k])))
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=body, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
        assert not any(th.is_alive() for th in threads)
        assert intern().graph is graph
    finally:
        sys.setswitchinterval(old)
        workload_memo.clear_build_cache()
    assert errors == []
    assert sorted(k for k, _ in got) == sorted(list(range(len(specs))) * 4)
    assert all(text == expected[k] for k, text in got)
