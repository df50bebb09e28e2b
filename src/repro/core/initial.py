"""Initial data placement from static reference counts.

Before the main loop, the compiler-analysis analogue has produced a
symbolic reference-count estimate per object (``DataObject.
static_ref_count``; 0 when unresolvable, e.g. trip counts behind a
convergence test).  Objects with the highest reference density go to DRAM
at allocation time — free of migration cost, which is the whole point:
runtime migration then only needs to fix what static analysis got wrong
or could not see.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.knapsack import greedy_by_density
from repro.tasking.dataobj import DataObject

__all__ = ["initial_placement"]

#: Share of DRAM filled at program start; the rest is headroom so the
#: runtime's first migration decisions are not starved for space.
RESERVE_FRACTION: float = 0.9


def initial_placement(
    objects: Iterable[DataObject],
    dram_capacity_bytes: int,
) -> set[int]:
    """Choose uids to place in DRAM at program start, within
    :data:`RESERVE_FRACTION` of its capacity."""
    objs = [o for o in objects if o.static_ref_count > 0]
    budget = int(dram_capacity_bytes * RESERVE_FRACTION)
    mask = greedy_by_density(
        values=[o.static_ref_count for o in objs],
        sizes=[o.size_bytes for o in objs],
        capacity=budget,
    )
    return {o.uid for o, keep in zip(objs, mask) if keep}
