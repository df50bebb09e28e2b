"""Tiled 2-D Jacobi heat diffusion — the iterative stencil workload.

Double-buffered grids ``A``/``B`` of ``grid x grid`` tiles; each iteration
spawns one task per tile reading its 5-point neighbourhood from the source
grid and writing its tile in the destination grid, then the buffers swap.
All tasks stream (bandwidth-sensitive), every tile is touched every
iteration — a stable, uniform hot set where the *cross-phase global
search* shines and per-window local search only adds migrations.

``variation_at``/``hot_fraction`` introduce a mid-run workload shift (a
heat source switching on): from that iteration, tasks in a corner region
sweep their tiles ``hot_boost`` times per iteration.  This drives the
adaptation (re-profiling) experiments.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import STREAMING, read_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_heat"]


@workload("heat")
def build_heat(
    grid: int = 8,
    tile_elems: int = 768,
    iterations: int = 12,
    time_per_elem: float = 2e-10,
    variation_at: int | None = None,
    hot_fraction: float = 0.25,
    hot_boost: float = 4.0,
) -> Workload:
    """Build the Jacobi task program (8x8 tiles of ~4.5 MiB, 12 sweeps)."""
    graph = TaskGraph()
    tile_bytes = tile_elems * tile_elems * 8

    a = {
        (i, j): DataObject(name=f"A[{i},{j}]", size_bytes=tile_bytes)
        for i in range(grid)
        for j in range(grid)
    }
    b = {
        (i, j): DataObject(name=f"B[{i},{j}]", size_bytes=tile_bytes)
        for i in range(grid)
        for j in range(grid)
    }

    hot_cut = int(grid * hot_fraction)

    src, dst = a, b
    for it in range(iterations):
        for i in range(grid):
            for j in range(grid):
                boost = (
                    hot_boost
                    if variation_at is not None
                    and it >= variation_at
                    and i < hot_cut
                    and j < hot_cut
                    else 1.0
                )
                accesses = {src[(i, j)]: read_footprint(tile_bytes, STREAMING, reuse=boost)}
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < grid and 0 <= nj < grid:
                        # Halo: one edge row/column of the neighbour tile.
                        accesses[src[(ni, nj)]] = read_footprint(
                            tile_elems * 8, STREAMING
                        )
                accesses[dst[(i, j)]] = write_footprint(tile_bytes, STREAMING)
                graph.add(
                    Task(
                        name=f"jacobi[{it},{i},{j}]",
                        # Same type before and after the shift: the change
                        # must be caught by adaptation, not by type capture.
                        type_name="jacobi",
                        accesses=accesses,
                        compute_time=tile_elems * tile_elems * time_per_elem * boost,
                        iteration=it,
                    )
                )
        src, dst = dst, src

    finalize_static_refs(graph)
    return Workload(
        name="heat",
        graph=graph,
        params={
            "grid": grid,
            "tile_elems": tile_elems,
            "iterations": iterations,
            "variation_at": variation_at,
        },
    )
