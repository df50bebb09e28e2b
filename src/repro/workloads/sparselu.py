"""SparseLU from the Barcelona OpenMP Task Suite (BOTS), block-sparse LU.

The matrix starts with a deterministic sparsity mask (a fraction of the
off-diagonal blocks is NULL); factorization creates fill-in — ``bmod``
allocates a block the first time it writes one that was NULL.  Kernels::

    lu0(k,k)                 diagonal factorization
    fwd(k,j)   j>k, A[k,j]   forward solve on row panel
    bdiv(i,k)  i>k, A[i,k]   backward divide on column panel
    bmod(i,j)  both panels   trailing update (creates fill-in)

Distinctive properties vs dense LU: blocks have wildly different lifetime
access counts (early-allocated blocks are re-modified many times, late
fill-in barely at all), and the set of *live* hot blocks is input-
dependent — static offline placement misjudges fill-in blocks it never saw
as hot, while runtime profiling catches them.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import BLOCKED, read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.rng import spawn_rng
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_sparselu"]


@workload("sparselu")
def build_sparselu(
    n_blocks: int = 14,
    block_elems: int = 512,
    density: float = 0.35,
    time_per_flop: float = 2e-12,
    reuse_sweeps: float = 4.0,
    seed: int = 202,
) -> Workload:
    """Build the SparseLU task program (14x14 blocks of 2 MiB, ~35 %
    initial density plus fill-in)."""
    rng = spawn_rng(seed, "sparselu")
    graph = TaskGraph()
    block_bytes = block_elems * block_elems * 8
    flops = 2.0 * block_elems**3

    blocks: dict[tuple[int, int], DataObject | None] = {}
    for i in range(n_blocks):
        for j in range(n_blocks):
            present = i == j or rng.random() < density
            blocks[(i, j)] = (
                DataObject(name=f"B[{i},{j}]", size_bytes=block_bytes)
                if present
                else None
            )

    def ensure(i: int, j: int) -> DataObject:
        blk = blocks[(i, j)]
        if blk is None:  # fill-in allocation
            blk = DataObject(name=f"B[{i},{j}]~fill", size_bytes=block_bytes)
            blocks[(i, j)] = blk
        return blk

    def rd():
        return read_footprint(block_bytes, BLOCKED, reuse=reuse_sweeps)

    def upd():
        return update_footprint(block_bytes, block_bytes, BLOCKED)

    for k in range(n_blocks):
        graph.add(
            Task(
                name=f"lu0[{k}]",
                type_name="lu0",
                accesses={ensure(k, k): upd()},
                compute_time=(flops / 3) * time_per_flop,
                iteration=k,
            )
        )
        for j in range(k + 1, n_blocks):
            if blocks[(k, j)] is not None:
                graph.add(
                    Task(
                        name=f"fwd[{k},{j}]",
                        type_name="fwd",
                        accesses={blocks[(k, k)]: rd(), blocks[(k, j)]: upd()},
                        compute_time=(flops / 2) * time_per_flop,
                        iteration=k,
                    )
                )
        for i in range(k + 1, n_blocks):
            if blocks[(i, k)] is not None:
                graph.add(
                    Task(
                        name=f"bdiv[{i},{k}]",
                        type_name="bdiv",
                        accesses={blocks[(k, k)]: rd(), blocks[(i, k)]: upd()},
                        compute_time=(flops / 2) * time_per_flop,
                        iteration=k,
                    )
                )
        for i in range(k + 1, n_blocks):
            if blocks[(i, k)] is None:
                continue
            for j in range(k + 1, n_blocks):
                if blocks[(k, j)] is None:
                    continue
                graph.add(
                    Task(
                        name=f"bmod[{i},{j},{k}]",
                        type_name="bmod",
                        accesses={
                            blocks[(i, k)]: rd(),
                            blocks[(k, j)]: rd(),
                            ensure(i, j): upd(),
                        },
                        compute_time=flops * time_per_flop,
                        iteration=k,
                    )
                )

    # Fill-in is invisible to static analysis: only the initially present
    # blocks get static reference counts.
    finalize_static_refs(graph)
    for obj in graph.objects:
        if obj.name.endswith("~fill"):
            obj.static_ref_count = 0.0

    return Workload(
        name="sparselu",
        graph=graph,
        params={"n_blocks": n_blocks, "block_elems": block_elems, "density": density},
    )
