"""Irregular-application workloads: k-means clustering and a phase shift.

- **kmeans**: Lloyd iterations.  ``assign`` tasks stream their point
  chunk and random-read the centroid table; a ``reduce`` task per
  iteration folds partial sums into new centroids.  Bandwidth-bound bulk
  data plus one small object every task shares — the textbook case for
  keeping the centroids DRAM-resident.
- **phaseshift**: one kernel over two lookup tables whose hot and cold
  roles swap mid-run — the adaptation stress case.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import (
    RANDOM,
    STREAMING,
    read_footprint,
    update_footprint,
)
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_kmeans", "build_phaseshift"]


@workload("kmeans")
def build_kmeans(
    n_chunks: int = 8,
    points_chunk_mib: float = 48.0,
    centroids_mib: float = 2.0,
    iterations: int = 8,
    time_per_byte: float = 4e-11,
) -> Workload:
    """Build the k-means task program (~384 MiB of points, 8 Lloyd
    iterations)."""
    graph = TaskGraph()
    pts_bytes = int(points_chunk_mib * MIB)
    cent_bytes = int(centroids_mib * MIB)

    points = [
        DataObject(name=f"points{i}", size_bytes=pts_bytes) for i in range(n_chunks)
    ]
    centroids = DataObject(name="centroids", size_bytes=cent_bytes)
    partials = [
        DataObject(name=f"sums{i}", size_bytes=cent_bytes) for i in range(n_chunks)
    ]

    for it in range(iterations):
        for c in range(n_chunks):
            graph.add(
                Task(
                    name=f"assign[{it},{c}]",
                    type_name="assign",
                    accesses={
                        points[c]: read_footprint(pts_bytes, STREAMING),
                        centroids: read_footprint(cent_bytes, RANDOM, reuse=4.0),
                        partials[c]: update_footprint(cent_bytes, cent_bytes, STREAMING),
                    },
                    compute_time=pts_bytes * time_per_byte,
                    iteration=it,
                )
            )
        graph.add(
            Task(
                name=f"reduce[{it}]",
                type_name="reduce",
                accesses={
                    **{p: read_footprint(p.size_bytes, STREAMING) for p in partials},
                    centroids: update_footprint(cent_bytes, cent_bytes, STREAMING),
                },
                compute_time=cent_bytes * time_per_byte * n_chunks,
                iteration=it,
            )
        )

    finalize_static_refs(graph)
    return Workload(
        name="kmeans",
        graph=graph,
        params={"n_chunks": n_chunks, "iterations": iterations},
    )


@workload("phaseshift")
def build_phaseshift(
    table_mib: float = 24.0,
    steps: int = 60,
    shift_at: int = 24,
    heavy_reuse: float = 6.0,
    light_reuse: float = 0.5,
    time_per_step: float = 3e-4,
) -> Workload:
    """A two-regime kernel: the adaptation stress case.

    Every step, one ``kernel`` task reads two lookup tables ``A`` and
    ``B`` (fixed argument binding — the case where re-profiling a task
    type directly re-ranks concrete objects).  Before ``shift_at`` the
    kernel sweeps ``A`` heavily and samples ``B``; afterwards the regime
    inverts.  DRAM sized for one table forces an exclusive choice, so a
    manager that never re-profiles keeps serving the stale table while an
    adaptive one swaps after the shift — the paper's
    workload-variation-across-iterations scenario in its purest form.
    """
    graph = TaskGraph()
    nbytes = int(table_mib * MIB)
    a = DataObject(name="tableA", size_bytes=nbytes)
    b = DataObject(name="tableB", size_bytes=nbytes)
    scratch = DataObject(name="scratch", size_bytes=int(MIB))

    for step in range(steps):
        # Fixed argument order (A, B, scratch): the regime change shifts the
        # *intensities*, not the bindings, so nothing about the future is
        # visible in task metadata — only re-profiling can catch it.
        reuse_a, reuse_b = (
            (heavy_reuse, light_reuse) if step < shift_at else (light_reuse, heavy_reuse)
        )
        graph.add(
            Task(
                name=f"kernel[{step}]",
                type_name="kernel",
                accesses={
                    a: read_footprint(nbytes, STREAMING, reuse=reuse_a),
                    b: read_footprint(nbytes, STREAMING, reuse=reuse_b),
                    scratch: update_footprint(MIB, MIB, STREAMING),
                },
                compute_time=time_per_step,
                iteration=step,
            )
        )

    # The regime switch depends on runtime state: statically unknown.
    finalize_static_refs(graph, known=0.0)
    return Workload(
        name="phaseshift",
        graph=graph,
        params={"steps": steps, "shift_at": shift_at, "table_mib": table_mib},
    )
