"""E2 — Per-object placement impact (Fig. 4 analogue).

For selected object groups of two contrasting workloads, place *only that
group* in DRAM (everything else on NVM) and compare against DRAM-only and
NVM-only, under a bandwidth-limited and a latency-limited NVM.

Expected shape (the paper's Observation 3): a streaming group (heat's
grid tiles, CG's matrix chunks) recovers performance under the
*bandwidth* configuration but is indifferent under the latency one; a
pointer-chasing group (health's villages, CG's column indices) recovers
under the *latency* configuration; CG's indices react to both.
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult, workload_params
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled, nvm_latency_scaled
from repro.util.tables import Table
from repro.workloads import build

EXPERIMENT = "E2"
TITLE = "Per-object placement impact (bandwidth vs latency sensitivity)"

#: (workload, group label, predicate on object name)
GROUPS = (
    ("cg", "a (matrix, streaming)", lambda n: n.startswith("a")),
    ("cg", "colidx (random gather)", lambda n: n.startswith("colidx")),
    ("cg", "vectors p/q/r/z/x", lambda n: n[0] in "pqrzx" and not n.startswith("rho")),
    ("health", "villages (pointer chase)", lambda n: n.startswith("village")),
)


def run(fast: bool = True, workers: int | None = None) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    table = Table(
        ["workload", "object group in DRAM", "bw-1/2", "lat-4x"],
        title="Normalized time with only the named group DRAM-resident "
        "(1.0 = DRAM-only; NVM-only shown as group '<none>')",
        float_format="{:.2f}",
    )

    configs = {"bw-1/2": nvm_bandwidth_scaled(0.5), "lat-4x": nvm_latency_scaled(4.0)}

    # The group is carried as object *names* (stable across rebuilds,
    # unlike process-local uids) in the spec's policy overrides, so the
    # runs stay cacheable and parallelizable like any other spec.
    def group_spec(wl: str, label: str, names: tuple[str, ...], group_bytes: int, nvm) -> RunSpec:
        return RunSpec(
            wl,
            "static",
            nvm,
            dram_capacity=max(group_bytes * 2, 256 * 2**20),
            fast=fast,
            policy_overrides={
                "dram_names": names,
                "name": f"only-{label}",
            },
        )

    groups_by_wl: dict[str, list[tuple[str, tuple[str, ...], int]]] = {}
    specs: list[RunSpec] = []
    for wl in ("cg", "health"):
        workload = build(wl, **workload_params(wl, fast))
        for gw, label, pred in GROUPS:
            if gw != wl:
                continue
            members = [o for o in workload.objects if pred(o.name)]
            names = tuple(sorted({o.name for o in members}))
            group_bytes = sum(o.size_bytes for o in members)
            groups_by_wl.setdefault(wl, []).append((label, names, group_bytes))
        for nvm in configs.values():
            specs.append(RunSpec(wl, "dram-only", nvm, fast=fast))
            specs.append(RunSpec(wl, "nvm-only", nvm, fast=fast))
            for label, names, group_bytes in groups_by_wl[wl]:
                specs.append(group_spec(wl, label, names, group_bytes, nvm))
    res = {r.spec: r for r in run_many(specs, workers=workers, strict=True)}

    for wl in ("cg", "health"):
        refs = {
            label: res[RunSpec(wl, "dram-only", nvm, fast=fast)].makespan
            for label, nvm in configs.items()
        }
        nvm_rows = {
            label: res[RunSpec(wl, "nvm-only", nvm, fast=fast)].makespan / refs[label]
            for label, nvm in configs.items()
        }
        table.add_row([wl, "<none> (NVM-only)", nvm_rows["bw-1/2"], nvm_rows["lat-4x"]])
        result.metrics[f"{wl}/none/bw"] = nvm_rows["bw-1/2"]
        result.metrics[f"{wl}/none/lat"] = nvm_rows["lat-4x"]

        for label, names, group_bytes in groups_by_wl[wl]:
            row: list = [wl, label]
            for cfg_label, nvm in configs.items():
                t = res[group_spec(wl, label, names, group_bytes, nvm)]
                norm = t.makespan / refs[cfg_label]
                row.append(norm)
                key = "bw" if cfg_label == "bw-1/2" else "lat"
                result.metrics[f"{wl}/{label.split()[0]}/{key}"] = norm
            table.add_row(row)

    result.tables = [table]
    result.notes = (
        "Expected: matrix chunks help under bw-1/2 only; villages help under\n"
        "lat-4x only; colidx helps under both (mixed sensitivity)."
    )
    return result
