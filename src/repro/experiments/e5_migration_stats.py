"""E5 — Migration statistics (Table 5 analogue).

For the data manager under the bandwidth-limited NVM: number of
migrations, migrated volume, pure runtime cost (profiling + modeling +
helper-thread synchronization, as a % of machine time), and the fraction
of copy time overlapped with computation.

Expected shape: pure runtime cost stays in low single digits; the
majority of copy time is hidden (the paper reports 60–100 % overlap);
migration counts vary by orders of magnitude across workloads (a handful
for stable hot sets, dozens-to-hundreds for shifting ones).
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult, STANDARD_WORKLOADS
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.tables import Table

EXPERIMENT = "E5"
TITLE = "Data-migration details for the data manager"


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = STANDARD_WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    table = Table(
        [
            "workload",
            "migrations",
            "migrated MiB",
            "runtime cost %",
            "overlap %",
            "profiled tasks",
            "replans",
        ],
        title="Migration details, NVM with 1/2 DRAM bandwidth (Table 5 analogue)",
        float_format="{:.1f}",
    )
    nvm = nvm_bandwidth_scaled(0.5)
    specs = [RunSpec(name, "tahoe", nvm, fast=fast) for name in workloads]
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}
    for name in workloads:
        t = res[RunSpec(name, "tahoe", nvm, fast=fast)]
        stats = t.summary.get("manager_stats", {})
        table.add_row(
            [
                name,
                t.migrations,
                t.migrated_mib,
                t.overhead_fraction * 100.0,
                t.overlap * 100.0,
                int(stats.get("profiled_tasks", 0)),
                int(stats.get("replans", 0)),
            ]
        )
        result.metrics[f"{name}/migrations"] = float(t.migrations)
        result.metrics[f"{name}/overhead_pct"] = t.overhead_fraction * 100.0
        result.metrics[f"{name}/overlap_pct"] = t.overlap * 100.0

    result.tables = [table]
    result.notes = (
        "Expected: runtime cost < ~3-5%; overlap mostly > 50%; counts span\n"
        "orders of magnitude across workloads."
    )
    return result
