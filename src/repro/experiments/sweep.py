"""Generic parameter-sweep harness.

``sweep()`` expands the cartesian product of axis values into
:class:`~repro.experiments.spec.RunSpec` batches, executes them through
:func:`~repro.experiments.parallel.run_many` (parallel + cached), and
returns long-form records (one dict per run) plus a pivot helper — the
building block for custom studies beyond E1–E11, e.g.::

    recs = sweep(
        workload="heat",
        policy=["nvm-only", "tahoe"],
        nvm=[nvm_bandwidth_scaled(f) for f in (0.5, 0.25)],
        dram_capacity=[128 * MIB, 256 * MIB],
    )
    print(pivot(recs, rows="dram_capacity", cols="policy", value="makespan"))
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Sequence

from repro.experiments.parallel import run_many
from repro.experiments.spec import RunSpec
from repro.memory.device import MemoryDevice
from repro.util.numeric import running_total
from repro.util.tables import Table

__all__ = ["sweep", "sweep_specs", "pivot"]


def _as_list(v: Any) -> list:
    if isinstance(v, (list, tuple)):
        return list(v)
    return [v]


def sweep_specs(
    workload: str | Sequence[str],
    policy: str | Sequence[str],
    nvm: MemoryDevice | Sequence[MemoryDevice],
    fast: bool,
    **axes: Any,
) -> list[RunSpec]:
    """The cartesian product of axis values as a list of specs.

    Extra keyword axes map onto :class:`RunSpec` fields (scalars or value
    lists): ``dram_capacity``, ``n_workers``, ``seed``, ``scheduler``,
    ``workload_overrides``, ``policy_overrides``, ``exec_overrides``.
    """
    names = ["workload", "policy", "nvm"] + sorted(axes)
    value_lists = (
        [_as_list(workload), _as_list(policy), _as_list(nvm)]
        + [_as_list(axes[k]) for k in sorted(axes)]
    )
    return [
        RunSpec(fast=fast, **dict(zip(names, combo)))
        for combo in itertools.product(*value_lists)
    ]


def sweep(
    workload: str | Sequence[str],
    policy: str | Sequence[str],
    nvm: MemoryDevice | Sequence[MemoryDevice],
    fast: bool = True,
    **axes: Any,
) -> list[dict[str, Any]]:
    """Run every combination through :func:`run_many` (the process's
    worker count and result cache); returns one record per run, in
    product order.  The keyword axes are spec fields as in
    :func:`sweep_specs`.
    """
    specs = sweep_specs(workload, policy, nvm, fast=fast, **axes)
    results = run_many(specs, strict=True)
    records: list[dict[str, Any]] = []
    for spec, r in zip(specs, results):
        rec: dict[str, Any] = {
            "workload": spec.workload,
            "policy": spec.policy,
            "nvm": spec.nvm.name,
            **{k: _label(getattr(spec, k)) for k in sorted(axes)},
            "makespan": r.makespan,
            "migrations": r.migrations,
            "migrated_mib": r.migrated_mib,
            "overlap": r.overlap,
            "overhead_fraction": r.overhead_fraction,
        }
        records.append(rec)
    return records


def _label(v: Any) -> Any:
    if isinstance(v, dict):
        return ",".join(f"{k}={val}" for k, val in sorted(v.items()))
    if isinstance(v, tuple):  # frozen override mapping on the spec
        return ",".join(f"{k}={val}" for k, val in v)
    return v


def pivot(
    records: Iterable[dict[str, Any]],
    rows: str,
    cols: str,
    value: str = "makespan",
) -> Table:
    """Arrange sweep records into a rows x cols table of ``value``."""
    records = list(records)
    row_keys = sorted({r[rows] for r in records}, key=str)
    col_keys = sorted({r[cols] for r in records}, key=str)
    table = Table([rows] + [str(c) for c in col_keys], title=f"{value} by {rows} x {cols}")
    for rk in row_keys:
        cells: list[Any] = [rk]
        for ck in col_keys:
            matches = [
                r[value] for r in records if r[rows] == rk and r[cols] == ck
            ]
            if not matches:
                cells.append("-")
            elif len(matches) == 1:
                cells.append(matches[0])
            else:
                cells.append(running_total(matches) / len(matches))
        table.add_row(cells)
    return table
