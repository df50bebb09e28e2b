"""Tiled N-body (all-pairs) — the reduction-heavy particle workload.

Particles are split into ``n_tiles`` position/force tile pairs.  Each time
step spawns ``force(i,j)`` tasks for every ordered tile pair (reading
``pos_i``/``pos_j``, accumulating into ``force_i`` — the accumulation
serializes per-``i`` through READWRITE inference, as a real reduction
would), then an ``update(i)`` task per tile integrating positions.

Position tiles are read ``n_tiles`` times per step by the force sweep —
uniformly hot, small, and read-mostly: ideal DRAM residents, and on
read/write-asymmetric NVM (Optane) the read-heavy force sweep vs the
write-heavy update is what the with/without read-write-distinction
ablation (E8) separates.
"""

from __future__ import annotations

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import (
    RANDOM,
    STREAMING,
    read_footprint,
    update_footprint,
)
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.workloads.base import Workload, finalize_static_refs, workload

__all__ = ["build_nbody"]


@workload("nbody")
def build_nbody(
    n_tiles: int = 12,
    particles_per_tile: int = 524288,
    steps: int = 4,
    time_per_interaction: float = 2e-11,
) -> Workload:
    """Build the N-body task program (12 tiles x 512 Ki particles x 4 steps,
    ~600 tasks)."""
    graph = TaskGraph()
    # pos: 4 doubles per particle (x, y, z, mass); force: 3 doubles.
    pos_bytes = particles_per_tile * 4 * 8
    frc_bytes = particles_per_tile * 3 * 8

    pos = [
        DataObject(name=f"pos{i}", size_bytes=pos_bytes) for i in range(n_tiles)
    ]
    frc = [
        DataObject(name=f"frc{i}", size_bytes=frc_bytes) for i in range(n_tiles)
    ]

    inter = particles_per_tile  # per-pair interactions per particle batch
    for step in range(steps):
        for i in range(n_tiles):
            for j in range(n_tiles):
                if i == j:
                    continue
                graph.add(
                    Task(
                        name=f"force[{step},{i},{j}]",
                        type_name="force",
                        accesses={
                            pos[i]: read_footprint(pos_bytes, RANDOM),
                            pos[j]: read_footprint(pos_bytes, RANDOM),
                            frc[i]: update_footprint(frc_bytes, frc_bytes, STREAMING),
                        },
                        compute_time=inter * 32 * time_per_interaction,
                        iteration=step,
                    )
                )
        for i in range(n_tiles):
            graph.add(
                Task(
                    name=f"update[{step},{i}]",
                    type_name="update",
                    accesses={
                        frc[i]: read_footprint(frc_bytes, STREAMING),
                        pos[i]: update_footprint(pos_bytes, pos_bytes, STREAMING),
                    },
                    compute_time=particles_per_tile * 8 * time_per_interaction,
                    iteration=step,
                )
            )

    finalize_static_refs(graph)
    return Workload(
        name="nbody",
        graph=graph,
        params={
            "n_tiles": n_tiles,
            "particles_per_tile": particles_per_tile,
            "steps": steps,
        },
    )
