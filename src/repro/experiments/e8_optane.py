"""E8 — Optane-class NVM and the read/write distinction (Fig. 14 analogue).

Run the roster on the Optane-PM preset (3x read/write bandwidth
asymmetry, 3.9/1.3 GB/s; 300/190 ns latency) and compare X-Mem, the data
manager with read/write-aware models ("w. drw"), and the manager with the
direction-blind models ("w.o drw", Eqs. 2/3), plus hardware Memory Mode.

Expected shape: the NVM-only gap is much larger than on the mildly scaled
emulated devices (Optane is several times slower on both axes); the
manager closes most of it; distinguishing reads from writes beats the
direction-blind variant, most visibly on write-heavy workloads (the
paper reports ~12 % average, up to 19 %).
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import RunSpec
from repro.memory.presets import optane_pm
from repro.util.tables import Table

EXPERIMENT = "E8"
TITLE = "Optane PMM study with/without read-write distinction"

WORKLOADS = ("cg", "heat", "cholesky", "lu", "sparselu", "nbody")
SYSTEMS = ("nvm-only", "hw-cache", "xmem", "tahoe-nodrw", "tahoe")


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    nvm = optane_pm()
    table = Table(
        ["workload", "dram-only"] + list(SYSTEMS),
        title="Normalized execution time on Optane-PM parameters (Fig. 14 analogue)",
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
        row: list = [name, 1.0]
        for system in SYSTEMS:
            t = res[RunSpec(name, system, nvm, fast=fast)]
            norm = t.makespan / ref
            row.append(norm)
            result.metrics[f"{name}/{system}"] = norm
        table.add_row(row)

    result.tables = [table]
    result.notes = (
        "Expected: large NVM-only gaps; tahoe (w. drw) <= tahoe-nodrw (w.o\n"
        "drw) <= xmem on average; the drw advantage concentrates on\n"
        "write-heavy workloads (Optane writes at 1/3 of its read bandwidth)."
    )
    return result
