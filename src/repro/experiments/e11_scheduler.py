"""E11 (extension) — scheduling/placement co-design.

The SC 2018 setting is a *task runtime*: unlike the MPI sibling, it also
controls which ready task runs next.  This experiment measures how much a
memory-aware ready policy (prefer tasks whose data is DRAM-resident,
defer tasks whose promotions are in flight) adds on top of the data
manager, against FIFO and critical-path ordering.

Expected shape: scheduling alone (memory-aware + NVM-only placement)
changes nothing — there is nothing resident to prefer, so the ordering
degenerates to FIFO; the data manager alone captures most of the benefit;
critical-path ordering is placement-agnostic and never hurts.  Memory-
aware ordering is *not* uniformly safe: it scores tasks once at enable
time, so on DAGs with long dependency chains (sparselu) deferring a
cold-data task can delay the chain behind it and cost more than the
avoided stalls — the co-design needs re-scoring or bounded deferral to be
a pure win.
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.tables import Table

EXPERIMENT = "E11"
TITLE = "Scheduling/placement co-design (extension)"

WORKLOADS = ("cg", "heat", "sparselu", "kmeans")
SCHEDULERS = ("fifo", "critical-path", "memory-aware")


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    nvm = nvm_bandwidth_scaled(0.5)
    table = Table(
        ["workload"]
        + [f"{s}+manager" for s in SCHEDULERS]
        + ["memory-aware+nvm-only"],
        title="Normalized time (DRAM-only = 1.0) per ready policy",
        float_format="{:.3f}",
    )

    specs: list[RunSpec] = []
    for name in workloads:
        specs.append(RunSpec(name, "dram-only", nvm, fast=fast))
        for sched in SCHEDULERS:
            specs.append(RunSpec(name, "tahoe", nvm, fast=fast, scheduler=sched))
        specs.append(RunSpec(name, "nvm-only", nvm, fast=fast, scheduler="memory-aware"))
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for name in workloads:
        ref = res[RunSpec(name, "dram-only", nvm, fast=fast)].makespan
        row: list = [name]
        for sched in SCHEDULERS:
            norm = res[RunSpec(name, "tahoe", nvm, fast=fast, scheduler=sched)].makespan / ref
            result.metrics[f"{name}/{sched}"] = norm
            row.append(norm)
        norm = (
            res[RunSpec(name, "nvm-only", nvm, fast=fast, scheduler="memory-aware")].makespan
            / ref
        )
        result.metrics[f"{name}/memaware-nvmonly"] = norm
        row.append(norm)
        table.add_row(row)

    result.tables = [table]
    result.notes = (
        "Expected: placement does the heavy lifting; ready-policy choice only\n"
        "matters when the DAG leaves slack.  Critical-path ordering never\n"
        "hurts (placement-agnostic rank).  Memory-aware ordering scores at\n"
        "enable time, so on chain-heavy DAGs (sparselu) it can defer a\n"
        "critical cold-data task and lose more than it saves; scheduling\n"
        "without placement recovers nothing (nothing resident to prefer)."
    )
    return result
