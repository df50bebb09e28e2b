"""Strassen matrix multiplication — the recursive divide-and-conquer
task workload (BOTS-style).

One recursion level of Strassen turns ``C = A x B`` into 7 sub-products
on quadrant combinations plus pre-/post- addition passes over
temporaries.  We expand ``depth`` levels; leaves are classic GEMM tasks.
The temporaries (``T1..T7`` per node) are short-lived but intensely
accessed — objects whose *lifetime-local* hotness a runtime catches while
whole-run static density ranking undervalues them.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import (
    BLOCKED,
    STREAMING,
    read_footprint,
    update_footprint,
    write_footprint,
)
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_strassen"]


@workload("strassen")
def build_strassen(
    matrix_elems: int = 4096,
    depth: int = 2,
    time_per_flop: float = 2e-12,
    reuse_sweeps: float = 4.0,
) -> Workload:
    """Build the Strassen task program (4096^2 doubles = 128 MiB per
    matrix, 2 recursion levels -> 49 leaf GEMMs)."""
    graph = TaskGraph()

    def mat(name: str, elems: int) -> DataObject:
        return DataObject(name=name, size_bytes=elems * elems * 8)

    A = mat("A", matrix_elems)
    B = mat("B", matrix_elems)
    C = mat("C", matrix_elems)

    def add_task(name, dst, srcs, elems, kind="add"):
        nbytes = elems * elems * 8
        accesses = {s: read_footprint(nbytes, STREAMING) for s in srcs}
        accesses[dst] = write_footprint(nbytes, STREAMING)
        return graph.add(
            Task(
                name=name,
                type_name=kind,
                accesses=accesses,
                compute_time=elems * elems * time_per_flop,
            )
        )

    def gemm_task(name, dst, a, b, elems):
        nbytes = elems * elems * 8
        return graph.add(
            Task(
                name=name,
                type_name="gemm_leaf",
                accesses={
                    a: read_footprint(nbytes, BLOCKED, reuse=reuse_sweeps),
                    b: read_footprint(nbytes, BLOCKED, reuse=reuse_sweeps),
                    dst: update_footprint(nbytes, nbytes, BLOCKED),
                },
                compute_time=2.0 * elems**3 * time_per_flop,
            )
        )

    def strassen(c, a, b, elems, level, path):
        """Emit tasks computing c = a x b (quadrants modelled as spans of
        work on the parent objects; temporaries are real objects)."""
        if level == 0:
            gemm_task(f"gemm[{path}]", c, a, b, elems)
            return
        half = elems // 2
        temps = [mat(f"T{i}[{path}]", half) for i in range(1, 8)]
        # Pre-additions: each Ti built from quadrant combinations of a, b.
        for i, t in enumerate(temps, start=1):
            add_task(f"pre{i}[{path}]", t, [a, b], half, kind="pre_add")
        # Seven recursive products, each into its own product temp.
        prods = [mat(f"P{i}[{path}]", half) for i in range(1, 8)]
        for i, (t, p) in enumerate(zip(temps, prods), start=1):
            strassen(p, t, b if i % 2 else a, half, level - 1, f"{path}.{i}")
        # Post-additions assemble the four quadrants of c.
        for q in range(4):
            add_task(f"post{q}[{path}]", c, prods[q : q + 4], half, kind="post_add")

    strassen(C, A, B, matrix_elems, depth, "r")
    finalize_static_refs(graph, known=0.6)  # temporaries are runtime-sized
    return Workload(
        name="strassen",
        graph=graph,
        params={"matrix_elems": matrix_elems, "depth": depth},
    )
