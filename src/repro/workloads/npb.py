"""NPB-style CG and MG recast as task programs.

These two mirror the NAS kernels the paper line evaluates, re-expressed
at task granularity:

- **CG**: per iteration, row-chunked SpMV tasks (streaming matrix values +
  random-gather column indices + gathers from every ``p`` chunk), dot-
  product and AXPY chunk tasks.  The matrix is huge and cold per byte;
  the vectors and index chunks are small and very hot — the classic
  "place the vectors, leave the matrix" decision.
- **MG**: V-cycles over a grid hierarchy.  The finest level is a few
  large tiles (only one fits in a small DRAM — the paper's MG/128 MB
  finding), coarser levels are small, hot single objects.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import (
    RANDOM,
    STREAMING,
    read_footprint,
    update_footprint,
    write_footprint,
)
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_cg", "build_mg"]


@workload("cg")
def build_cg(
    n_chunks: int = 8,
    matrix_chunk_mib: float = 96.0,
    idx_chunk_mib: float = 24.0,
    vector_chunk_mib: float = 2.0,
    iterations: int = 8,
    time_per_row: float = 3e-10,
) -> Workload:
    """Build the CG task program (~1 GiB matrix, 8 solver iterations)."""
    graph = TaskGraph()
    a_bytes = int(matrix_chunk_mib * MIB)
    idx_bytes = int(idx_chunk_mib * MIB)
    v_bytes = int(vector_chunk_mib * MIB)

    a = [DataObject(name=f"a{i}", size_bytes=a_bytes) for i in range(n_chunks)]
    colidx = [
        DataObject(name=f"colidx{i}", size_bytes=idx_bytes) for i in range(n_chunks)
    ]
    vec = {
        name: [
            DataObject(name=f"{name}{i}", size_bytes=v_bytes) for i in range(n_chunks)
        ]
        for name in ("p", "q", "r", "z", "x")
    }
    rho = DataObject(name="rho", size_bytes=4096)

    rows = a_bytes // 8
    for it in range(iterations):
        for i in range(n_chunks):
            accesses = {
                a[i]: read_footprint(a_bytes, STREAMING),
                colidx[i]: read_footprint(idx_bytes, RANDOM),
                vec["q"][i]: write_footprint(v_bytes, STREAMING),
            }
            for j in range(n_chunks):  # gather from the whole p vector
                accesses[vec["p"][j]] = read_footprint(v_bytes, RANDOM, reuse=2.0)
            graph.add(
                Task(
                    name=f"spmv[{it},{i}]",
                    type_name="spmv",
                    accesses=accesses,
                    compute_time=rows * time_per_row,
                    iteration=it,
                )
            )
        for i in range(n_chunks):
            graph.add(
                Task(
                    name=f"dot[{it},{i}]",
                    type_name="dot",
                    accesses={
                        vec["p"][i]: read_footprint(v_bytes, STREAMING),
                        vec["q"][i]: read_footprint(v_bytes, STREAMING),
                        rho: update_footprint(4096, 4096, STREAMING),
                    },
                    compute_time=(v_bytes / 8) * time_per_row / 4,
                    iteration=it,
                )
            )
        for i in range(n_chunks):
            graph.add(
                Task(
                    name=f"axpy[{it},{i}]",
                    type_name="axpy",
                    accesses={
                        rho: read_footprint(4096, STREAMING),
                        vec["q"][i]: read_footprint(v_bytes, STREAMING),
                        vec["z"][i]: update_footprint(v_bytes, v_bytes, STREAMING),
                        vec["r"][i]: update_footprint(v_bytes, v_bytes, STREAMING),
                        vec["p"][i]: update_footprint(v_bytes, v_bytes, STREAMING),
                    },
                    compute_time=(v_bytes / 8) * time_per_row / 2,
                    iteration=it,
                )
            )

    # aelt/acol/arow-style init-only arrays are excluded, as in the paper;
    # iteration counts hide behind the convergence test for some objects.
    finalize_static_refs(graph, known=0.8)
    return Workload(
        name="cg",
        graph=graph,
        params={"n_chunks": n_chunks, "iterations": iterations},
    )


@workload("mg")
def build_mg(
    n_fine_tiles: int = 8,
    fine_tile_mib: float = 64.0,
    levels: int = 5,
    iterations: int = 6,
    time_per_mib: float = 1e-4,
) -> Workload:
    """Build the MG task program (512 MiB finest grid in 64 MiB tiles,
    5-level V-cycles)."""
    graph = TaskGraph()
    fine_bytes = int(fine_tile_mib * MIB)

    fine = [
        DataObject(name=f"grid0_t{i}", size_bytes=fine_bytes)
        for i in range(n_fine_tiles)
    ]
    coarse = [
        DataObject(
            name=f"grid{l}",
            size_bytes=max(int(n_fine_tiles * fine_bytes / (8**l)), 256 * 1024),
        )
        for l in range(1, levels)
    ]
    resid = [
        DataObject(
            name=f"resid{l}",
            size_bytes=max(int(n_fine_tiles * fine_bytes / (8**l)), 256 * 1024),
        )
        for l in range(1, levels)
    ]

    def smooth_fine(it: int, phase: str):
        for i, tile in enumerate(fine):
            graph.add(
                Task(
                    name=f"smooth0_{phase}[{it},{i}]",
                    type_name="smooth_fine",
                    accesses={tile: update_footprint(fine_bytes, fine_bytes, STREAMING)},
                    compute_time=fine_tile_mib * time_per_mib,
                    iteration=it,
                )
            )

    for it in range(iterations):
        # Downward leg: smooth + restrict to the next coarser level.
        smooth_fine(it, "down")
        graph.add(
            Task(
                name=f"restrict0[{it}]",
                type_name="restrict_fine",
                accesses={
                    **{t: read_footprint(fine_bytes, STREAMING) for t in fine},
                    coarse[0]: write_footprint(coarse[0].size_bytes, STREAMING),
                },
                compute_time=n_fine_tiles * fine_tile_mib * time_per_mib / 4,
                iteration=it,
            )
        )
        for l in range(1, levels - 1):
            graph.add(
                Task(
                    name=f"smooth{l}[{it}]",
                    type_name="smooth_coarse",
                    accesses={
                        coarse[l - 1]: update_footprint(
                            coarse[l - 1].size_bytes, coarse[l - 1].size_bytes, STREAMING,
                            reuse=2.0,
                        ),
                        resid[l - 1]: update_footprint(
                            resid[l - 1].size_bytes, resid[l - 1].size_bytes, STREAMING
                        ),
                    },
                    compute_time=coarse[l - 1].size_bytes / MIB * time_per_mib,
                    iteration=it,
                )
            )
            if l < levels - 2:
                graph.add(
                    Task(
                        name=f"restrict{l}[{it}]",
                        type_name="restrict_coarse",
                        accesses={
                            coarse[l - 1]: read_footprint(coarse[l - 1].size_bytes, STREAMING),
                            coarse[l]: write_footprint(coarse[l].size_bytes, STREAMING),
                        },
                        compute_time=coarse[l].size_bytes / MIB * time_per_mib,
                        iteration=it,
                    )
                )
        # Upward leg: prolongate back to the finest level and re-smooth.
        for l in range(levels - 2, 0, -1):
            graph.add(
                Task(
                    name=f"prolong{l}[{it}]",
                    type_name="prolong",
                    accesses={
                        coarse[l - 1]: update_footprint(
                            coarse[l - 1].size_bytes, coarse[l - 1].size_bytes, STREAMING
                        ),
                        resid[l - 1]: read_footprint(resid[l - 1].size_bytes, STREAMING),
                    },
                    compute_time=coarse[l - 1].size_bytes / MIB * time_per_mib,
                    iteration=it,
                )
            )
        graph.add(
            Task(
                name=f"prolong0[{it}]",
                type_name="prolong_fine",
                accesses={
                    coarse[0]: read_footprint(coarse[0].size_bytes, STREAMING),
                    **{
                        t: update_footprint(fine_bytes, fine_bytes, STREAMING)
                        for t in fine
                    },
                },
                compute_time=n_fine_tiles * fine_tile_mib * time_per_mib / 4,
                iteration=it,
            )
        )
        smooth_fine(it, "up")

    finalize_static_refs(graph)
    return Workload(
        name="mg",
        graph=graph,
        params={"n_fine_tiles": n_fine_tiles, "levels": levels, "iterations": iterations},
    )
