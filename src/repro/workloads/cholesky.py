"""Blocked (tiled) Cholesky factorization — the canonical task-parallel
dense linear-algebra workload (PLASMA/OmpSs-class).

Right-looking algorithm on an ``n_tiles x n_tiles`` lower-triangular tile
grid::

    for k:  POTRF(A[k,k])
            for i > k:        TRSM(A[i,k] <- A[k,k])
            for i > k, j<=i:  SYRK/GEMM(A[i,j] -= A[i,k] * A[j,k]^T)

Tiles are the data objects; dependence inference over tile accesses yields
the classic Cholesky DAG.  Traffic model: each kernel sweeps its input
tiles ``reuse_sweeps`` times (cache-blocked inner kernels), BLOCKED
pattern.  Diagonal-adjacent tiles are touched by many kernels — the hot
set the data manager should keep in DRAM.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import BLOCKED, read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_cholesky"]


@workload("cholesky")
def build_cholesky(
    n_tiles: int = 12,
    tile_elems: int = 1024,
    time_per_flop: float = 2e-12,
    reuse_sweeps: float = 4.0,
) -> Workload:
    """Build the tiled-Cholesky task program.

    Defaults: 12x12 tiles of 1024^2 doubles (8 MiB/tile, ~0.6 GiB total),
    ~450 tasks.
    """
    graph = TaskGraph()
    tile_bytes = tile_elems * tile_elems * 8
    flops_gemm = 2.0 * tile_elems**3

    tiles: dict[tuple[int, int], DataObject] = {}
    for i in range(n_tiles):
        for j in range(i + 1):
            tiles[(i, j)] = DataObject(name=f"A[{i},{j}]", size_bytes=tile_bytes)

    def rd(sweeps: float = reuse_sweeps):
        return read_footprint(tile_bytes, BLOCKED, reuse=sweeps)

    def upd(sweeps: float = 1.0):
        return update_footprint(
            tile_bytes, tile_bytes, BLOCKED, reuse=sweeps
        )

    for k in range(n_tiles):
        graph.add(
            Task(
                name=f"potrf[{k}]",
                type_name="potrf",
                accesses={tiles[(k, k)]: upd(reuse_sweeps / 2)},
                compute_time=(flops_gemm / 6) * time_per_flop,
                iteration=k,
            )
        )
        for i in range(k + 1, n_tiles):
            graph.add(
                Task(
                    name=f"trsm[{i},{k}]",
                    type_name="trsm",
                    accesses={tiles[(k, k)]: rd(), tiles[(i, k)]: upd()},
                    compute_time=(flops_gemm / 2) * time_per_flop,
                    iteration=k,
                )
            )
        for i in range(k + 1, n_tiles):
            for j in range(k + 1, i + 1):
                if i == j:
                    accesses = {tiles[(i, k)]: rd(), tiles[(i, i)]: upd()}
                    kernel, flops = "syrk", flops_gemm / 2
                else:
                    accesses = {
                        tiles[(i, k)]: rd(),
                        tiles[(j, k)]: rd(),
                        tiles[(i, j)]: upd(),
                    }
                    kernel, flops = "gemm", flops_gemm
                graph.add(
                    Task(
                        name=f"{kernel}[{i},{j},{k}]",
                        type_name=kernel,
                        accesses=accesses,
                        compute_time=flops * time_per_flop,
                        iteration=k,
                    )
                )

    finalize_static_refs(graph)
    return Workload(
        name="cholesky",
        graph=graph,
        params={"n_tiles": n_tiles, "tile_elems": tile_elems},
    )
