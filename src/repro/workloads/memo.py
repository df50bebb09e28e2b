"""Interned workload builds: one graph per (workload, params) structure.

Building a task graph — spawning tasks, inferring dependences, resolving
static reference counts — is pure construction: the result depends only
on the workload name, its builder parameters, and the model version.
Sweeps and repeated runs rebuild the same structure over and over, so the
built :class:`~repro.workloads.base.Workload` is interned here and shared
across runs.  Sharing is safe because all runtime-mutable placement state
lives in the memory system and the policies, never in the graph, its
tasks, or its data objects — a property pinned by the repeat-run
equivalence tests.

Partitioned variants get their *own* memo entries: partitioning mutates a
graph in place (splitting large objects and rewriting accesses), so a
graph handed to :func:`~repro.core.partition.partition_graph` must never
be the unpartitioned cache entry.  The chunk size is therefore part of
the memo key and the partitioning runs on a freshly built graph.

The memo is a thread-safe LRU of :data:`_MEMO_MAX` workloads, so jobs on
the digital-twin server's thread pool can share it.  Two threads that
miss on the same key at once both build; the later build replaces the
earlier entry, and each caller runs on the graph it built.

A cold build allocates tens of thousands of objects that all stay alive
(tasks, access maps, edge sets), so the cyclic garbage collector's young
collections during it find nothing to free.  The collector is paused
while any build runs and put back as it was when the last concurrent
build ends.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.core.partition import partition_graph
from repro.util.lru import BoundedLRU
from repro.workloads.base import Workload, build

__all__ = ["build_cached", "clear_build_cache", "build_cache_stats"]

_MEMO_MAX = 32

#: (name, frozen params, partition bytes, model version) -> Workload
_memo: BoundedLRU[Any, Workload] = BoundedLRU(_MEMO_MAX)
_stats = {"hits": 0, "misses": 0}
#: Cold builds in progress and whether the collector was enabled when the
#: first of them started; both read and written under ``_build_lock``.
_builds = {"running": 0, "collector_was_enabled": False}
_build_lock = threading.Lock()


def _freeze(value: Any) -> Any:
    """Recursively hashable form of a builder parameter value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def build_cached(
    name: str, *, partition_max_bytes: int | None = None, **params: Any
) -> Workload:
    """Construct (or reuse) a registered workload, optionally partitioned.

    Memo-equivalent calls return the *same* :class:`Workload` instance —
    identical graph, task, and object identities — which also makes
    repeated runs bitwise reproducible where fresh builds would differ in
    uid-dependent set-iteration order.
    """
    # Imported lazily: experiments imports workloads at package import.
    from repro.experiments.spec import MODEL_VERSION

    key = (name, _freeze(params), partition_max_bytes, MODEL_VERSION)
    wl = _memo.get(key)
    if wl is not None:
        _stats["hits"] += 1
        return wl

    _stats["misses"] += 1
    with _collector_paused():
        wl = build(name, **params)
        if partition_max_bytes:
            partition_graph(wl.graph, partition_max_bytes)
    _memo.put(key, wl)
    return wl


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for one cold build.  The first
    of several concurrent builds records whether it was enabled and
    pauses it; the last one to end restores that state, so no thread can
    leave it disabled."""
    with _build_lock:
        if _builds["running"] == 0:
            _builds["collector_was_enabled"] = gc.isenabled()
            gc.disable()
        _builds["running"] += 1
    try:
        yield
    finally:
        with _build_lock:
            _builds["running"] -= 1
            if _builds["running"] == 0 and _builds["collector_was_enabled"]:
                gc.enable()


def clear_build_cache() -> None:
    """Drop all interned workloads (tests and long-lived processes)."""
    _memo.clear()
    _stats["hits"] = _stats["misses"] = 0


def build_cache_stats() -> dict[str, int]:
    """Hit/miss counters for the interning layer (observability)."""
    return dict(_stats)
