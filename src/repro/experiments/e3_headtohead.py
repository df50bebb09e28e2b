"""E3 — Head-to-head comparison (Figs. 9–10 analogue).

DRAM-only vs NVM-only vs X-Mem vs hardware Memory-Mode vs the data
manager, across the standard workload roster, under the two canonical
NVM configurations (1/2 DRAM bandwidth; 4x DRAM latency).

Expected shape: the manager lands close to DRAM-only (single-digit
percent where capacity permits), at or better than X-Mem on the regular
workloads and clearly better on workloads whose hot set shifts or is
invisible offline; Memory-Mode sits between NVM-only and the software
approaches when the working set exceeds DRAM.  The headline statistic is
the mean *gap closure*: (NVM-only − manager)/(NVM-only − DRAM-only).
"""

from __future__ import annotations

import statistics

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult, STANDARD_WORKLOADS
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled, nvm_latency_scaled
from repro.util.tables import Table

EXPERIMENT = "E3"
TITLE = "Head-to-head: DRAM/NVM/X-Mem/Memory-Mode/data manager"

SYSTEMS = ("nvm-only", "hw-cache", "xmem", "tahoe")


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = STANDARD_WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    configs = {
        "bw-1/2": nvm_bandwidth_scaled(0.5),
        "lat-4x": nvm_latency_scaled(4.0),
    }
    specs = [
        RunSpec(name, system, nvm, fast=fast)
        for nvm in configs.values()
        for name in workloads
        for system in ("dram-only",) + SYSTEMS
    ]
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for label, nvm in configs.items():
        table = Table(
            ["workload", "dram-only"] + list(SYSTEMS),
            title=f"Normalized execution time, NVM = {label} "
            f"(Fig. {'9' if label == 'bw-1/2' else '10'} analogue)",
            float_format="{:.2f}",
        )
        closures = []
        for name in workloads:
            ref = res[RunSpec(name, "dram-only", nvm, fast=fast)].makespan
            row: list = [name, 1.0]
            norms = {}
            for system in SYSTEMS:
                t = res[RunSpec(name, system, nvm, fast=fast)]
                norms[system] = t.makespan / ref
                row.append(norms[system])
                result.metrics[f"{name}/{label}/{system}"] = norms[system]
            table.add_row(row)
            gap = norms["nvm-only"] - 1.0
            if gap > 0.05:
                closures.append((norms["nvm-only"] - norms["tahoe"]) / gap)
        if closures:
            result.metrics[f"gap_closure/{label}"] = statistics.mean(closures)
            table.add_row(
                ["mean gap closure", float("nan")]
                + [float("nan")] * (len(SYSTEMS) - 1)
                + [statistics.mean(closures)]
            )
        result.tables.append(table)

    result.notes = (
        "Expected: tahoe within ~10% of DRAM-only where DRAM capacity allows,\n"
        "<= X-Mem on regular workloads, never worse than NVM-only; mean gap\n"
        "closure in the 50-80% range (paper: 78.4% on its roster)."
    )
    return result
