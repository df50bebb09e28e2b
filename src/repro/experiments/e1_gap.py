"""E1 — NVM/DRAM performance-gap study (Figs. 2–3 analogue).

NVM-only slowdown vs DRAM-only across emulated NVM configurations: 1/2,
1/4, 1/8 of DRAM bandwidth, and 2x, 4x, 8x DRAM latency.

Expected shape: every workload slows monotonically along each axis;
streaming workloads (heat, stream, mg, fft, strassen) react to the
bandwidth axis and barely to latency; pointer-chasing workloads (health,
pchase) react to latency and barely to bandwidth; CG and N-body react to
both.  Magnitudes land in the paper's 1.1x–8.4x band.
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled, nvm_latency_scaled
from repro.util.tables import Table

EXPERIMENT = "E1"
TITLE = "NVM-only vs DRAM-only performance gap"

WORKLOADS = (
    "cg",
    "heat",
    "cholesky",
    "lu",
    "sparselu",
    "health",
    "nbody",
    "mg",
    "fft",
    "strassen",
)

BW_FRACTIONS = (0.5, 0.25, 0.125)
LAT_MULTIPLIERS = (2.0, 4.0, 8.0)


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    bw_table = Table(
        ["workload", "dram"] + [f"bw-1/{int(1 / f)}" for f in BW_FRACTIONS],
        title="Normalized execution time, NVM with scaled bandwidth (Fig. 2 analogue)",
        float_format="{:.2f}",
    )
    lat_table = Table(
        ["workload", "dram"] + [f"lat-{int(m)}x" for m in LAT_MULTIPLIERS],
        title="Normalized execution time, NVM with scaled latency (Fig. 3 analogue)",
        float_format="{:.2f}",
    )

    specs: list[RunSpec] = []
    for name in workloads:
        specs.append(RunSpec(name, "dram-only", nvm_bandwidth_scaled(0.5), fast=fast))
        for frac in BW_FRACTIONS:
            specs.append(RunSpec(name, "nvm-only", nvm_bandwidth_scaled(frac), fast=fast))
        for mult in LAT_MULTIPLIERS:
            specs.append(RunSpec(name, "nvm-only", nvm_latency_scaled(mult), fast=fast))
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for name in workloads:
        ref = res[RunSpec(name, "dram-only", nvm_bandwidth_scaled(0.5), fast=fast)].makespan
        row_bw: list = [name, 1.0]
        for frac in BW_FRACTIONS:
            t = res[RunSpec(name, "nvm-only", nvm_bandwidth_scaled(frac), fast=fast)]
            slow = t.makespan / ref
            row_bw.append(slow)
            result.metrics[f"{name}/bw-{frac:g}"] = slow
        bw_table.add_row(row_bw)

        row_lat: list = [name, 1.0]
        for mult in LAT_MULTIPLIERS:
            t = res[RunSpec(name, "nvm-only", nvm_latency_scaled(mult), fast=fast)]
            slow = t.makespan / ref
            row_lat.append(slow)
            result.metrics[f"{name}/lat-{mult:g}x"] = slow
        lat_table.add_row(row_lat)

    result.tables = [bw_table, lat_table]
    result.notes = (
        "Expected: monotone slowdowns; bandwidth-sensitive workloads react to\n"
        "the BW axis, latency-sensitive (health) to the LAT axis; 1.1x-8.4x band."
    )
    return result
