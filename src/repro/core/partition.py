"""Large-object partitioning (the chunking optimization).

An object larger than DRAM can never be migrated — the fundamental limit
of object-granularity software management.  For *partitionable* objects
(regular 1-D accesses; the paper's conservative criterion), the graph is
rewritten before execution: the object becomes N chunks, and every task's
access is distributed over the chunks its declared span overlaps,
proportionally.  Placement, profiling and migration then operate on
chunks.

The transformation is in-place and idempotent.  Task dependence edges are
left untouched: chunk-level conflicts are a subset of the object-level
(or manually declared) conflicts, so existing edges remain correct,
merely conservative.
"""

from __future__ import annotations

from dataclasses import replace

from repro.tasking.access import ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.graph import TaskGraph

__all__ = ["partition_graph"]


def partition_graph(graph: TaskGraph, max_chunk_bytes: int) -> TaskGraph:
    """Split partitionable objects larger than ``max_chunk_bytes``.

    Returns the same graph object (mutated).  Objects that are not marked
    ``partitionable`` are never split, however large — exactly the cases
    (memory aliasing, irregular accesses) where the paper's compiler tool
    must give up, e.g. MG's aliased grids.
    """
    if max_chunk_bytes <= 0:
        raise ValueError("max_chunk_bytes must be positive")
    if graph.partitioned_at == max_chunk_bytes:
        return graph

    chunk_map: dict[int, list[DataObject]] = {}
    for obj in graph.objects:
        if obj.partitionable and obj.size_bytes > max_chunk_bytes:
            n = -(-obj.size_bytes // max_chunk_bytes)  # ceil
            chunk_map[obj.uid] = obj.partition(n)

    rewritten: dict[int, dict[DataObject, ObjectAccess]] = {}
    if not chunk_map:
        graph.repartition(max_chunk_bytes, chunk_map, rewritten)
        return graph

    # Equal rewrites of one footprint share an instance, so the graph's
    # footprint table stays as short as the distinct chunk footprints.
    # The tasks hold every source footprint for the whole pass, so its
    # id() is not reused.
    interned: dict[tuple[int, int, int], ObjectAccess] = {}
    for task in graph.tasks:
        new_accesses: dict[DataObject, ObjectAccess] = {}
        changed = False
        for obj, acc in task.accesses.items():
            chunks = chunk_map.get(obj.uid)
            if chunks is None:
                new_accesses[obj] = acc
                continue
            changed = True
            lo, hi = acc.span if acc.span is not None else (0.0, 1.0)
            width = hi - lo
            n = len(chunks)
            for i, chunk in enumerate(chunks):
                c_lo, c_hi = i / n, (i + 1) / n
                ov = max(0.0, min(hi, c_hi) - max(lo, c_lo))
                if ov <= 0.0:
                    continue
                frac = ov / width
                loads = int(round(acc.loads * frac))
                stores = int(round(acc.stores * frac))
                key = (id(acc), loads, stores)
                part = interned.get(key)
                if part is None:
                    part = interned[key] = replace(
                        acc, loads=loads, stores=stores, span=None
                    )
                new_accesses[chunk] = part
        if changed:
            rewritten[task.tid] = new_accesses

    graph.repartition(max_chunk_bytes, chunk_map, rewritten)
    return graph
