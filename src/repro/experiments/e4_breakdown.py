"""E4 — Technique contribution breakdown (Fig. 11 analogue).

Apply the manager's four major techniques cumulatively and measure each
one's share of the total improvement over NVM-only:

1. cross-run **global search** only;
2. + window-local search (full scope choice);
3. + **partitioning** of large objects;
4. + **initial placement** from static analysis.

Expected shape: global search dominates on workloads with a stable hot
set (cg, heat); local search adds on shifting-panel factorizations
(cholesky, lu); partitioning only matters where monolithic arrays exceed
DRAM (fft — the paper's FT finding); initial placement contributes
everywhere by removing warm-up migrations.
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.tables import Table
from repro.util.units import MIB

EXPERIMENT = "E4"
TITLE = "Contribution of the four techniques"

WORKLOADS = ("cg", "heat", "cholesky", "lu", "sparselu", "fft", "health")

#: Cumulative configurations: data-manager config overrides per stage,
#: carried in each spec's ``policy_overrides`` (no registry mutation).
STAGES = (
    ("global", dict(enable_local_search=False, enable_initial_placement=False)),
    ("+local", dict(enable_initial_placement=False)),
    ("+partition", dict(enable_initial_placement=False, partition_max_bytes=32 * MIB)),
    ("+initial", dict(partition_max_bytes=32 * MIB)),
)


def _stage_spec(name: str, stage: str, overrides: dict, nvm, fast: bool) -> RunSpec:
    return RunSpec(
        name,
        "tahoe",
        nvm,
        fast=fast,
        policy_overrides={"name": f"tahoe-{stage}", **overrides},
    )


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = WORKLOADS,
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    norm_table = Table(
        ["workload", "nvm-only"] + [s for s, _ in STAGES],
        title="Normalized time as techniques are enabled cumulatively",
        float_format="{:.2f}",
    )
    contrib_table = Table(
        ["workload"] + [s for s, _ in STAGES],
        title="Share of total improvement contributed by each technique (%)",
        float_format="{:.0f}",
    )
    nvm = nvm_bandwidth_scaled(0.5)

    specs: list[RunSpec] = []
    for name in workloads:
        specs.append(RunSpec(name, "dram-only", nvm, fast=fast))
        specs.append(RunSpec(name, "nvm-only", nvm, fast=fast))
        for stage_name, overrides in STAGES:
            specs.append(_stage_spec(name, stage_name, overrides, nvm, fast))
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for name in workloads:
        ref = res[RunSpec(name, "dram-only", nvm, fast=fast)].makespan
        nvm_norm = res[RunSpec(name, "nvm-only", nvm, fast=fast)].makespan / ref
        norms = []
        for stage_name, overrides in STAGES:
            t = res[_stage_spec(name, stage_name, overrides, nvm, fast)]
            norms.append(t.makespan / ref)
            result.metrics[f"{name}/{stage_name}"] = norms[-1]
        norm_table.add_row([name, nvm_norm] + norms)

        total_gain = max(nvm_norm - norms[-1], 1e-9)
        prev = nvm_norm
        shares = []
        for n in norms:
            shares.append(max(prev - n, 0.0) / total_gain * 100.0)
            prev = min(prev, n)
        contrib_table.add_row([name] + shares)
        result.metrics[f"{name}/nvm"] = nvm_norm

    result.tables = [norm_table, contrib_table]
    result.notes = (
        "Expected: global search carries most workloads; local search adds on\n"
        "cholesky/lu; partitioning matters only for fft; initial placement\n"
        "contributes broadly (warm-up elimination)."
    )
    return result
