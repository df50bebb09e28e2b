"""E6 — Strong scaling (Fig. 12 analogue).

Fix the problem size, sweep the worker count (4 → 64), and compare
DRAM-only, the data manager, and NVM-only, normalized per worker count to
that worker count's DRAM-only run.

Expected shape: the manager tracks DRAM-only within a few percent at
every scale.  As workers grow, per-task bandwidth contention rises, cache
effects shift object sensitivities, and the per-worker share of DRAM
shrinks — the manager must re-derive its decisions at each scale (the
paper's adaptivity argument for scaling).
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import RunSpec
from repro.memory.presets import numa_emulated
from repro.util.tables import Table

EXPERIMENT = "E6"
TITLE = "Strong scaling of the data manager"

WORKER_COUNTS = (4, 8, 16, 32, 64)
WORKLOADS = ("cg", "cholesky")
SYSTEMS = ("dram-only", "tahoe", "nvm-only")


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    nvm = numa_emulated()  # the paper's NUMA-emulated NVM: 0.6x BW, 1.89x lat
    counts = WORKER_COUNTS[:3] if fast else WORKER_COUNTS
    specs = [
        RunSpec(name, system, nvm, n_workers=w, fast=fast)
        for name in workloads
        for w in counts
        for system in SYSTEMS
    ]
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for name in workloads:
        table = Table(
            ["workers", "dram-only", "tahoe", "nvm-only", "dram makespan (s)"],
            title=f"{name}: strong scaling, NUMA-emulated NVM (0.6x BW, 1.89x lat)",
            float_format="{:.2f}",
        )
        for w in counts:
            ref = res[RunSpec(name, "dram-only", nvm, n_workers=w, fast=fast)].makespan
            tah = res[RunSpec(name, "tahoe", nvm, n_workers=w, fast=fast)].makespan
            nv = res[RunSpec(name, "nvm-only", nvm, n_workers=w, fast=fast)].makespan
            table.add_row([w, 1.0, tah / ref, nv / ref, ref])
            result.metrics[f"{name}/w{w}/tahoe"] = tah / ref
            result.metrics[f"{name}/w{w}/nvm"] = nv / ref
            result.metrics[f"{name}/w{w}/dram_makespan"] = ref
        result.tables.append(table)

    result.notes = (
        "Expected: tahoe within ~7% of DRAM-only at every scale; DRAM-only\n"
        "makespan shrinks with workers (strong scaling) until contention and\n"
        "the critical path flatten it."
    )
    return result
