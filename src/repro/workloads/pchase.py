"""Pointer-chasing microbenchmark as a task program.

A single permutation list is chased for ``hops_per_task`` dependent loads
per task, ``n_tasks`` tasks chained serially through a READWRITE access
(each task advances the cursor).  One thread, no memory concurrency —
the calibration workload for ``CF_lat``, matching the paper's use of the
pChase benchmark with a single thread.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import chase_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.base import Workload, workload

__all__ = ["build_pchase"]


@workload("pchase")
def build_pchase(
    n_tasks: int = 8,
    mib_list: float = 8.0,
    hops_per_task: int = 200_000,
    compute_per_hop: float = 1e-9,
) -> Workload:
    """Build the pointer-chase task program (serial chain)."""
    graph = TaskGraph()
    nbytes = int(mib_list * MIB)
    lst = DataObject(
        name="chase_list",
        size_bytes=nbytes,
        static_ref_count=float(n_tasks * hops_per_task),
        partitionable=False,  # irregular accesses: the chunker must skip it
    )
    for i in range(n_tasks):
        graph.add(
            Task(
                name=f"chase[{i}]",
                type_name="chase",
                accesses={lst: chase_footprint(hops_per_task, stores_per_hop=0.05)},
                compute_time=hops_per_task * compute_per_hop,
                iteration=i,
            )
        )
    return Workload(
        name="pchase",
        graph=graph,
        params={
            "n_tasks": n_tasks,
            "mib_list": mib_list,
            "hops_per_task": hops_per_task,
        },
    )
