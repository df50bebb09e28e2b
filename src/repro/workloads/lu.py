"""Blocked dense LU factorization (no pivoting) on a full tile grid.

Right-looking::

    for k:  GETRF(A[k,k])
            for j > k:  TRSM_row(A[k,j] <- A[k,k])
            for i > k:  TRSM_col(A[i,k] <- A[k,k])
            for i,j>k:  GEMM(A[i,j] -= A[i,k] * A[k,j])

The trailing-submatrix GEMMs dominate (~2/3 n^3), and the panel tiles
``A[*,k]``/``A[k,*]`` of the current step are reused by a whole row/column
of GEMMs — a shifting hot set that rewards runtime migration over static
placement (the LU-slowdown story of the paper's gap study).
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import BLOCKED, read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_lu"]


@workload("lu")
def build_lu(
    n_tiles: int = 10,
    tile_elems: int = 1024,
    time_per_flop: float = 2e-12,
    reuse_sweeps: float = 4.0,
) -> Workload:
    """Build the tiled-LU task program (10x10 tiles of 8 MiB by default,
    ~0.8 GiB, ~400 tasks)."""
    graph = TaskGraph()
    tile_bytes = tile_elems * tile_elems * 8
    flops_gemm = 2.0 * tile_elems**3

    tiles: dict[tuple[int, int], DataObject] = {
        (i, j): DataObject(name=f"A[{i},{j}]", size_bytes=tile_bytes)
        for i in range(n_tiles)
        for j in range(n_tiles)
    }

    def rd():
        return read_footprint(tile_bytes, BLOCKED, reuse=reuse_sweeps)

    def upd():
        return update_footprint(tile_bytes, tile_bytes, BLOCKED)

    for k in range(n_tiles):
        graph.add(
            Task(
                name=f"getrf[{k}]",
                type_name="getrf",
                accesses={tiles[(k, k)]: upd()},
                compute_time=(2 / 3) * tile_elems**3 * time_per_flop,
                iteration=k,
            )
        )
        for j in range(k + 1, n_tiles):
            graph.add(
                Task(
                    name=f"trsm_r[{k},{j}]",
                    type_name="trsm_row",
                    accesses={tiles[(k, k)]: rd(), tiles[(k, j)]: upd()},
                    compute_time=(flops_gemm / 2) * time_per_flop,
                    iteration=k,
                )
            )
        for i in range(k + 1, n_tiles):
            graph.add(
                Task(
                    name=f"trsm_c[{i},{k}]",
                    type_name="trsm_col",
                    accesses={tiles[(k, k)]: rd(), tiles[(i, k)]: upd()},
                    compute_time=(flops_gemm / 2) * time_per_flop,
                    iteration=k,
                )
            )
        for i in range(k + 1, n_tiles):
            for j in range(k + 1, n_tiles):
                graph.add(
                    Task(
                        name=f"gemm[{i},{j},{k}]",
                        type_name="gemm",
                        accesses={
                            tiles[(i, k)]: rd(),
                            tiles[(k, j)]: rd(),
                            tiles[(i, j)]: upd(),
                        },
                        compute_time=flops_gemm * time_per_flop,
                        iteration=k,
                    )
                )

    finalize_static_refs(graph)
    return Workload(
        name="lu",
        graph=graph,
        params={"n_tiles": n_tiles, "tile_elems": tile_elems},
    )
