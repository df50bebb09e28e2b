"""X-Mem-class baseline: offline profiling + static placement.

Dulloor et al.'s X-Mem (EuroSys'16) profiles the application offline with
binary instrumentation, classifies each data structure's dominant access
pattern, and computes a static placement for the whole run.  The defining
differences from the paper's runtime (which the head-to-head experiments
surface) are:

- *offline, exact* counts (PIN sees everything — no sampling noise), but a
  separate profiling run is required;
- one *homogeneous* pattern per object — per-phase / per-task-window
  variation is invisible;
- *no data movement model* — the placement never changes at runtime, so
  there is no migration cost to reason about, but also no adaptation.

It wins slightly on profiling fidelity and loses on workloads whose hot
set shifts across the run (the Nek5000 effect in the paper line).
"""

from __future__ import annotations

from repro.baselines.policies import BasePolicy
from repro.tasking.executor import ExecContext

__all__ = ["XMemPolicy"]


class XMemPolicy(BasePolicy):
    """Static hotness-density placement from an offline exact profile."""

    name = "xmem"

    def on_run_start(self, ctx: ExecContext) -> None:
        # The offline profile: exact access totals over the executed graph
        # (the offline run sees the same program), ranked by density
        # (accesses per byte), ties to the lower uid.
        totals = ctx.graph.access_totals()
        by_uid = ctx.graph.exec_core().by_uid

        def density(uid: int) -> float:
            size = by_uid[uid].size_bytes
            return totals[uid] / size if size else 0.0

        for uid in sorted(totals, key=lambda u: (-density(u), u)):
            obj = by_uid[uid]
            if ctx.hms.dram_fits(obj.size_bytes):
                ctx.place_initial(obj, ctx.dram)
