"""E10 (extension) — energy, endurance, and the oracle-static yardstick.

Beyond the paper's tables: the introduction motivates NVM with power
efficiency, so we account it.  For each system on the bw-1/2 platform:

- total energy (dynamic + static + migration) from the first-order
  energy model, vs the two homogeneous references: DRAM-only pays full
  refresh on a working-set-sized DRAM; NVM-only pays slow accesses
  longer;
- NVM bytes written (endurance proxy) — how much write amplification a
  migration-happy policy adds to a write-limited device;
- performance as a *fraction of oracle-static* (the exact-benefit static
  knapsack): a sharper yardstick than distance-from-DRAM-only when DRAM
  cannot hold the working set.

Expected shape: the data manager lands within ~10 % of oracle-static on
stable workloads and can beat it on phase-shifting ones; its energy sits
between NVM-only (cheap static, expensive dynamic) and DRAM-only
(opposite), with negligible migration energy; endurance overhead from
migration stays a small fraction of the application's own NVM writes.
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.tables import Table

EXPERIMENT = "E10"
TITLE = "Energy, endurance, and fraction of oracle-static (extension)"

WORKLOADS = ("cg", "heat", "health", "sparselu")
SYSTEMS = ("nvm-only", "xmem", "tahoe", "oracle-static")


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    nvm = nvm_bandwidth_scaled(0.5)

    perf = Table(
        ["workload"] + list(SYSTEMS) + ["tahoe/oracle"],
        title="Normalized time (DRAM-only = 1.0) and fraction of oracle-static",
        float_format="{:.2f}",
    )
    energy = Table(
        ["workload", "system", "dynamic J", "static J", "migration J", "total J",
         "NVM MiB written"],
        title="Energy and endurance accounting",
        float_format="{:.2f}",
    )

    specs = [
        RunSpec(name, system, nvm, fast=fast)
        for name in workloads
        for system in ("dram-only",) + SYSTEMS
    ]
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for name in workloads:
        ref = res[RunSpec(name, "dram-only", nvm, fast=fast)].makespan
        norms = {}
        for system in SYSTEMS:
            tr = res[RunSpec(name, system, nvm, fast=fast)]
            norms[system] = tr.makespan / ref
            result.metrics[f"{name}/{system}"] = norms[system]
            s = tr.energy
            energy.add_row(
                [
                    name,
                    system,
                    s["dynamic_j"],
                    s["static_j"],
                    s["migration_j"],
                    s["total_j"],
                    s["nvm_mib_written"],
                ]
            )
            if system == "tahoe":
                result.metrics[f"{name}/tahoe_total_j"] = s["total_j"]
                result.metrics[f"{name}/tahoe_nvm_mib_written"] = s["nvm_mib_written"]
            if system == "nvm-only":
                result.metrics[f"{name}/nvm_nvm_mib_written"] = s["nvm_mib_written"]
        ratio = norms["oracle-static"] / norms["tahoe"] if norms["tahoe"] > 0 else 0.0
        result.metrics[f"{name}/oracle_fraction"] = ratio
        perf.add_row([name] + [norms[s] for s in SYSTEMS] + [ratio])

    result.tables = [perf, energy]
    result.notes = (
        "Expected: tahoe within ~10% of oracle-static; migration energy\n"
        "negligible next to application traffic; migration-added NVM writes a\n"
        "small fraction of the application's own."
    )
    return result
