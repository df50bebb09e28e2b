"""Workload container and registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.tasking.dataobj import DataObject
from repro.tasking.graph import TaskGraph

__all__ = ["Workload", "WORKLOADS", "workload", "build"]


@dataclass
class Workload:
    """A ready-to-execute task program."""

    name: str
    graph: TaskGraph
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def objects(self) -> list[DataObject]:
        return self.graph.objects

    @property
    def total_bytes(self) -> int:
        return self.graph.total_object_bytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Workload({self.name!r}, tasks={len(self.graph)}, "
            f"objects={len(self.objects)}, bytes={self.total_bytes})"
        )


def finalize_static_refs(graph: TaskGraph, known: float = 1.0) -> None:
    """Fill in the compiler-analysis static reference counts.

    For regular loop nests the symbolic formulas resolve exactly, so the
    static count equals the true total; ``known < 1`` models codes where
    only that fraction of objects is statically analyzable (iteration
    counts behind convergence tests) — the rest stay at 0 and the initial
    placement cannot consider them.  Objects are dropped from the "known"
    set deterministically by uid order.
    """
    totals = graph.access_totals()
    objs = {o.uid: o for o in graph.objects}
    known_cut = int(len(objs) * known)
    for rank, uid in enumerate(sorted(objs)):
        objs[uid].static_ref_count = totals.get(uid, 0.0) if rank < known_cut else 0.0


#: name -> builder(**params) registry.
WORKLOADS: dict[str, Callable[..., Workload]] = {}


def workload(name: str):
    """Decorator registering a workload builder under ``name``."""

    def register(fn: Callable[..., Workload]) -> Callable[..., Workload]:
        if name in WORKLOADS:
            raise ValueError(f"workload {name!r} already registered")
        WORKLOADS[name] = fn
        return fn

    return register


def build(name: str, **params: Any) -> Workload:
    """Construct a registered workload."""
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None
    return builder(**params)
