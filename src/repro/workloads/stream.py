"""STREAM-triad microbenchmark as a task program.

``n_tasks`` independent slices, each with its own ``a``, ``b``, ``c``
arrays; every iteration spawns one triad task per slice computing
``a = b + s*c`` (streaming reads of ``b``/``c``, streaming writes of
``a``).  Slices are independent, so the machine reaches peak concurrent
bandwidth — this is the calibration workload for ``CF_bw`` and for
measuring each device's achievable peak (the paper runs STREAM with
maximum memory concurrency for exactly this).
"""

from __future__ import annotations

from repro.tasking.footprints import STREAMING, read_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.base import Workload, workload

__all__ = ["build_stream"]


@workload("stream")
def build_stream(
    n_tasks: int = 8,
    mib_per_array: float = 4.0,
    iterations: int = 3,
    flops_per_byte_time: float = 2e-11,
) -> Workload:
    """Build the STREAM-triad task program.

    ``flops_per_byte_time`` sets the (tiny) per-byte compute time so tasks
    are memory-bound, as STREAM is.
    """
    graph = TaskGraph()
    nbytes = int(mib_per_array * MIB)
    refs = iterations * 3 * nbytes / 8  # loads+stores per slice over the run

    for s in range(n_tasks):
        a = _arr(graph, f"a{s}", nbytes, refs / 3)
        b = _arr(graph, f"b{s}", nbytes, refs / 3)
        c = _arr(graph, f"c{s}", nbytes, refs / 3)
        for it in range(iterations):
            graph.add(
                Task(
                    name=f"triad[{s},{it}]",
                    type_name="triad",
                    accesses={
                        a: write_footprint(nbytes, STREAMING),
                        b: read_footprint(nbytes, STREAMING),
                        c: read_footprint(nbytes, STREAMING),
                    },
                    compute_time=3 * nbytes * flops_per_byte_time,
                    iteration=it,
                )
            )
    return Workload(
        name="stream",
        graph=graph,
        description="STREAM triad: independent bandwidth-bound slices",
        params={
            "n_tasks": n_tasks,
            "mib_per_array": mib_per_array,
            "iterations": iterations,
        },
    )


def _arr(graph: TaskGraph, name: str, nbytes: int, refs: float):
    from repro.tasking.dataobj import DataObject

    obj = DataObject(
        name=name, size_bytes=nbytes, static_ref_count=refs, partitionable=True
    )
    return obj
