"""Layered random DAGs — the stress/ablation workload.

``layers x width`` tasks; each task depends on 1..3 random tasks of the
previous layer (via RAW edges on their output objects) and touches a
random subset of a shared object pool with a random pattern class.  Sizes
are log-normal, so the pool mixes many small hot objects with a few large
ones — the knapsack's natural habitat.  Fully deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from repro.tasking.access import PATTERNS, AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.rng import spawn_rng
from repro.util.units import MIB
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_randomdag"]


@workload("randomdag")
def build_randomdag(
    layers: int = 12,
    width: int = 16,
    n_pool_objects: int = 48,
    mean_object_mib: float = 8.0,
    seed: int = 31,
) -> Workload:
    """Build a random layered task DAG (12x16 tasks, 48 shared objects)."""
    rng = spawn_rng(seed, "randomdag")
    graph = TaskGraph()
    pattern_names = sorted(PATTERNS)

    # Shared pool: log-normal sizes around the mean.
    pool = []
    sizes = np.exp(rng.normal(np.log(mean_object_mib * MIB), 0.9, n_pool_objects))
    for i, s in enumerate(sizes):
        pool.append(DataObject(name=f"pool{i}", size_bytes=max(int(s), 64 * 1024)))

    # Per-task output objects (layer links).
    outputs: list[list[DataObject]] = []
    for layer in range(layers):
        outputs.append(
            [
                DataObject(name=f"out[{layer},{w}]", size_bytes=int(1 * MIB))
                for w in range(width)
            ]
        )

    for layer in range(layers):
        for w in range(width):
            accesses: dict[DataObject, ObjectAccess] = {}
            # Dependences on the previous layer via its outputs.
            if layer > 0:
                k = int(rng.integers(1, 4))
                for p in rng.choice(width, size=min(k, width), replace=False):
                    prev = outputs[layer - 1][int(p)]
                    accesses[prev] = ObjectAccess(
                        AccessMode.READ, loads=int(prev.size_bytes / 8), stores=0
                    )
            # Pool traffic with a random pattern class.
            n_objs = int(rng.integers(1, 4))
            for p in rng.choice(n_pool_objects, size=n_objs, replace=False):
                obj = pool[int(p)]
                pat = PATTERNS[pattern_names[int(rng.integers(len(pattern_names)))]]
                touched = int(obj.size_bytes * rng.uniform(0.2, 1.0) / 8)
                write = rng.random() < 0.3
                accesses[obj] = ObjectAccess(
                    AccessMode.READWRITE if write else AccessMode.READ,
                    loads=touched,
                    stores=touched // 4 if write else 0,
                    pattern=pat,
                )
            out = outputs[layer][w]
            accesses[out] = ObjectAccess(
                AccessMode.WRITE, loads=0, stores=int(out.size_bytes / 8)
            )
            graph.add(
                Task(
                    name=f"t[{layer},{w}]",
                    type_name=f"layer{layer % 4}",
                    accesses=accesses,
                    compute_time=float(rng.uniform(0.5e-3, 3e-3)),
                    iteration=layer,
                )
            )

    finalize_static_refs(graph, known=0.7)
    return Workload(
        name="randomdag",
        graph=graph,
        params={"layers": layers, "width": width, "seed": seed},
    )
