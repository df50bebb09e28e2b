"""E7 — DRAM-size sensitivity (Fig. 13 analogue).

Sweep the DRAM tier through 128/256/512 MiB under the bandwidth-limited
NVM and measure the data manager against DRAM-only and NVM-only.

Expected shape: performance degrades gracefully as DRAM shrinks; the
128 MiB point hurts most on workloads with large indivisible objects
(MG's 64 MiB fine tiles — the paper's MG/128 MB finding), while
fine-grained workloads keep most of their benefit because the knapsack
packs small hot objects.
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult, STANDARD_WORKLOADS
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.tables import Table
from repro.util.units import MIB

EXPERIMENT = "E7"
TITLE = "Sensitivity to the DRAM size"

SIZES_MIB = (128, 256, 512)
WORKLOADS = STANDARD_WORKLOADS + ("mg",)


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    nvm = nvm_bandwidth_scaled(0.5)
    table = Table(
        ["workload", "nvm-only"] + [f"dram={s}MiB" for s in SIZES_MIB],
        title="Data manager, normalized time vs DRAM capacity (Fig. 13 analogue)",
        float_format="{:.2f}",
    )
    specs: list[RunSpec] = []
    for name in workloads:
        specs.append(RunSpec(name, "dram-only", nvm, fast=fast))
        specs.append(RunSpec(name, "nvm-only", nvm, fast=fast))
        for size in SIZES_MIB:
            specs.append(RunSpec(name, "tahoe", nvm, dram_capacity=size * MIB, fast=fast))
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for name in workloads:
        ref = res[RunSpec(name, "dram-only", nvm, fast=fast)].makespan
        nv = res[RunSpec(name, "nvm-only", nvm, fast=fast)].makespan / ref
        row: list = [name, nv]
        for size in SIZES_MIB:
            t = res[RunSpec(name, "tahoe", nvm, dram_capacity=size * MIB, fast=fast)]
            norm = t.makespan / ref
            row.append(norm)
            result.metrics[f"{name}/{size}MiB"] = norm
        result.metrics[f"{name}/nvm"] = nv
        table.add_row(row)

    result.tables = [table]
    result.notes = (
        "Expected: monotone improvement with DRAM size; biggest 128-MiB\n"
        "penalty on mg (indivisible 64-MiB tiles), graceful elsewhere."
    )
    return result
