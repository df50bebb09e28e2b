"""FT-style task FFT over two monolithic arrays.

The defining reproduction target here is the paper line's FT finding:
*partitioning large data objects* is what rescues FT, because its arrays
are single allocations larger than DRAM — unpartitioned they simply cannot
be migrated.  So, unlike the tiled workloads, ``u0``/``u1`` are single
``partitionable`` objects; every task declares the *span* (fraction range)
it touches and dependences are wired manually at span granularity (object-
granularity inference would falsely serialize whole stages).

Structure per iteration: P local-FFT tasks (slice-parallel), then log2(P)
butterfly stages where stage ``s`` combines aligned groups of ``2^s``
slices (one task per group — parallelism narrows as spans widen, as in a
non-transposed FFT), then a slice-parallel ``evolve`` pass.  All tasks
stream; a small twiddle table is read by everyone (the obvious DRAM
resident).
"""

from __future__ import annotations

from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import STREAMING, WORD_BYTES
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_fft"]


def _span_access(
    mode: AccessMode, nbytes: float, span: tuple[float, float], reuse: float = 1.0
) -> ObjectAccess:
    n = max(0, int(round(nbytes * reuse / WORD_BYTES)))
    return ObjectAccess(
        mode=mode,
        loads=n if mode is not AccessMode.WRITE else 0,
        stores=n if mode is not AccessMode.READ else 0,
        pattern=STREAMING,
        span=span,
        infer_deps=False,
    )


@workload("fft")
def build_fft(
    n_slices: int = 32,
    array_mib: float = 512.0,
    iterations: int = 2,
    time_per_elem: float = 4e-10,
) -> Workload:
    """Build the FT task program (two 512 MiB monolithic arrays by default)."""
    if n_slices & (n_slices - 1):
        raise ValueError("n_slices must be a power of two")
    graph = TaskGraph()
    nbytes = int(array_mib * MIB)
    u0 = DataObject(name="u0", size_bytes=nbytes, partitionable=True)
    u1 = DataObject(name="u1", size_bytes=nbytes, partitionable=True)
    twiddle = DataObject(name="twiddle", size_bytes=int(4 * MIB))

    slice_bytes = nbytes / n_slices
    import math

    n_stages = int(math.log2(n_slices))
    # cover[i]: task that last produced slice i of the "current" array.
    cover: list[Task | None] = [None] * n_slices

    def spawn(name, type_name, src, dst, lo, hi, reuse_src=1.0, extra_twiddle=1.0):
        """One span task reading src[lo:hi], writing dst[lo:hi]."""
        span = (lo / n_slices, hi / n_slices)
        width_bytes = (hi - lo) * slice_bytes
        accesses = {
            src: _span_access(AccessMode.READ, width_bytes, span, reuse_src),
            dst: _span_access(AccessMode.WRITE, width_bytes, span),
            twiddle: ObjectAccess(
                AccessMode.READ,
                loads=int(twiddle.size_bytes * extra_twiddle / WORD_BYTES),
                stores=0,
                pattern=STREAMING,
            ),
        }
        task = Task(
            name=name,
            type_name=type_name,
            accesses=accesses,
            compute_time=(width_bytes / 8) * time_per_elem,
        )
        graph.add(task)
        for dep in {cover[i] for i in range(lo, hi) if cover[i] is not None}:
            graph.add_edge(dep, task)
        for i in range(lo, hi):
            cover[i] = task
        return task

    cur, nxt = u0, u1
    for it in range(iterations):
        for s in range(n_slices):
            spawn(f"fft_local[{it},{s}]", "fft_local", cur, nxt, s, s + 1, reuse_src=2.0)
        cur, nxt = nxt, cur
        for stage in range(1, n_stages + 1):
            group = 1 << stage
            for g in range(n_slices // group):
                spawn(
                    f"fft_stage[{it},{stage},{g}]",
                    f"fft_stage{stage}",
                    cur,
                    nxt,
                    g * group,
                    (g + 1) * group,
                )
            cur, nxt = nxt, cur
        for s in range(n_slices):
            spawn(
                f"evolve[{it},{s}]", "evolve", cur, nxt, s, s + 1, extra_twiddle=2.0
            )
        cur, nxt = nxt, cur

    finalize_static_refs(graph)
    return Workload(
        name="fft",
        graph=graph,
        params={
            "n_slices": n_slices,
            "array_mib": array_mib,
            "iterations": iterations,
        },
    )
