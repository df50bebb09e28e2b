"""Oracle static placement — the evaluation's upper-bound comparator.

Unlike every realizable policy, the oracle reads the *ground truth*: for
each object it computes the exact whole-run time saved by DRAM residency
(per-access uncontended memory time on NVM minus on DRAM, from the
machine's own timing law: true footprints, true patterns) and solves the
same DRAM knapsack with those exact values.  It still pays no migrations (placement fixed at t=0), so it bounds what any
*static* placement can achieve; a dynamic policy can beat it only by
exploiting phase behaviour.

Used in the E10 extension experiment to report "fraction of oracle-static
achieved" — a sharper yardstick than distance from DRAM-only when DRAM
cannot hold the working set.
"""

from __future__ import annotations

from repro.baselines.policies import BasePolicy
from repro.core.knapsack import solve_knapsack
from repro.tasking.executor import ExecContext, memory_times

__all__ = ["OracleStaticPolicy"]

#: Fraction of DRAM the oracle's knapsack may fill.
CAPACITY_FRACTION = 0.98


class OracleStaticPolicy(BasePolicy):
    """Exact-benefit static knapsack (not realizable; evaluation only)."""

    name = "oracle-static"

    def on_run_start(self, ctx: ExecContext) -> None:
        objs = ctx.graph.objects
        csr = ctx.graph.exec_core().accesses
        saved = memory_times(csr, ctx.nvm) - memory_times(csr, ctx.dram)
        benefit = {o.uid: 0.0 for o in objs}
        # Summed per object in task order, one access at a time.
        for uid, s in zip(csr.obj_uid[csr.obj].tolist(), saved.tolist()):
            benefit[uid] += s
        values = [benefit[o.uid] for o in objs]
        sizes = [o.size_bytes for o in objs]
        budget = int(ctx.dram.capacity_bytes * CAPACITY_FRACTION)
        mask = solve_knapsack(values, sizes, budget, granularity=1024)
        for obj, keep in zip(objs, mask):
            if keep and ctx.hms.dram_fits(obj.size_bytes):
                ctx.place_initial(obj, ctx.dram)
