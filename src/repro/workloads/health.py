"""Health (BOTS) — the pointer-chasing hierarchical simulation.

A tree of "villages" (hospitals), each holding linked patient lists.  Per
time step, every village runs a simulation task that chases its patient
list (dependent loads — latency-bound) and a fraction of patients is
transferred to the parent village (small RAW edges up the tree).

This is the latency-sensitive counterpoint to the streaming workloads:
traffic is tiny but every access is a serialized NVM-latency miss, so the
4x/8x-latency NVM configurations hammer it while the bandwidth
configurations barely register (the Fig.-4 object-sensitivity story).
Village sizes are deterministic-pseudo-random and access counts depend on
patient flow, so static analysis only knows part of the picture.
"""

from __future__ import annotations

from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import POINTER_CHASE, chase_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.rng import spawn_rng
from repro.util.units import MIB
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_health"]


@workload("health")
def build_health(
    levels: int = 4,
    fanout: int = 3,
    steps: int = 12,
    base_patients: int = 90_000,
    time_per_patient: float = 5e-9,
    seed: int = 77,
) -> Workload:
    """Build the health task program (a 4-level, fanout-3 village tree
    simulated for 12 steps; 40 villages, ~480 tasks)."""
    rng = spawn_rng(seed, "health")
    graph = TaskGraph()

    # Build the village tree breadth-first; higher levels see more
    # transferred patients, hence more traffic.
    villages: list[tuple[DataObject, int, int]] = []  # (obj, level, parent_idx)

    def make_village(level: int, parent: int, idx: str) -> int:
        patients = int(base_patients * (1.5 ** (levels - 1 - level)) * rng.uniform(0.6, 1.4))
        obj = DataObject(
            name=f"village[{idx}]",
            size_bytes=max(int(0.25 * MIB), patients * 96),  # 96 B per record
        )
        villages.append((obj, level, parent))
        me = len(villages) - 1
        if level + 1 < levels:
            for c in range(fanout):
                make_village(level + 1, me, f"{idx}.{c}")
        return me

    make_village(0, -1, "0")

    for step in range(steps):
        for vi, (obj, level, parent) in enumerate(villages):
            hops = max(1000, int(obj.size_bytes / 96 * rng.uniform(0.8, 1.2)))
            accesses = {obj: chase_footprint(hops, stores_per_hop=0.10)}
            if parent >= 0:
                # Patient transfer: small RW burst on the parent's list.
                pobj = villages[parent][0]
                accesses[pobj] = ObjectAccess(
                    AccessMode.READWRITE,
                    loads=hops // 10,
                    stores=hops // 20,
                    pattern=POINTER_CHASE,
                )
            graph.add(
                Task(
                    name=f"sim[{step},{vi}]",
                    type_name=f"sim_l{level}",
                    accesses=accesses,
                    compute_time=hops * time_per_patient,
                    iteration=step,
                )
            )

    # Patient flow is input-dependent: static analysis resolves only some
    # of the village access formulas.
    finalize_static_refs(graph, known=0.5)
    return Workload(
        name="health",
        graph=graph,
        params={"levels": levels, "fanout": fanout, "steps": steps},
    )
