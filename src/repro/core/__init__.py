"""The paper's contribution: the runtime data manager.

Pipeline (per the paper's three-step workflow, re-targeted at task
granularity):

1. **Profiling** — the first few instances of each *task type* are sampled
   through the emulated hardware counters (``repro.profiling``); a
   :class:`~repro.core.models.TypeModel` summarizes per-argument-slot
   load/store behaviour.
2. **Modeling** — a per-run :class:`~repro.core.demand.DemandProjection`
   folds the slot models over the planning horizon (the remaining tasks,
   read once per replan by :func:`~repro.core.demand.scan_frontier`) into
   a :class:`~repro.core.demand.DemandBatch` per scope, and one column
   weigher (``repro.core.placement._weights_for``) prices every object:
   per-object bandwidth demand (Eq. 1 analogue) picks bandwidth or
   latency sensitivity, benefit models with read/write asymmetry
   (Eqs. 2–5) and a migration cost with DAG-lookahead overlap (Eq. 6)
   and eviction cost (Eq. 7) give its weight.
3. **Decision & enforcement** — a 0/1 knapsack over DRAM capacity picks
   residents; window-local search and cross-run global search are both
   evaluated and the better is enforced through helper-thread proactive
   migrations issued at the earliest dependency-safe point.

Optimizations: static-reference-count initial placement, large-object
partitioning, >10 % deviation adaptation (re-profiling).
"""

from repro.core.demand import DemandBatch
from repro.core.knapsack import solve_knapsack_arrays, greedy_by_density
from repro.core.models import SlotStats, TypeModel
from repro.core.partition import partition_graph
from repro.core.manager import DataManagerPolicy

__all__ = [
    "DemandBatch",
    "solve_knapsack_arrays",
    "greedy_by_density",
    "SlotStats",
    "TypeModel",
    "partition_graph",
    "DataManagerPolicy",
]
