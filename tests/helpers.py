"""Shared test helpers (graph builders, run shortcuts)."""

from __future__ import annotations

import json

from repro.baselines import NVMOnlyPolicy
from repro.core.demand import DemandBatch
from repro.faults.plan import FaultPlan
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram
from repro.metrics.audit import AuditEntry, PlacementAuditLog
from repro.tasking.access import AccessMode
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import read_footprint, update_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB


def reads(mode: AccessMode) -> bool:
    """Whether a dependence mode reads its object (RAW/WAR inference)."""
    return mode is not AccessMode.WRITE


def writes(mode: AccessMode) -> bool:
    """Whether a dependence mode writes its object."""
    return mode is not AccessMode.READ


def residency(hms: HeterogeneousMemorySystem) -> dict[int, str]:
    """Snapshot of every placed object: uid -> device name."""
    return {uid: pl.device for uid, pl in hms._placements.items()}


def audit_select(audit: PlacementAuditLog, action: str) -> list[AuditEntry]:
    """The audit entries of one action, in log order.  ``copy`` entries
    reconcile 1:1 with ``MigrationEngine.records`` (failed copies too)."""
    return [e for e in audit.entries if e.action == action]


def audit_migrated_bytes(audit: PlacementAuditLog) -> int:
    """Bytes the audit log records as successfully copied."""
    return sum(e.size_bytes for e in audit_select(audit, "copy") if e.outcome == "ok")


def make_chain_graph(n_tasks: int = 6, obj_mib: float = 4.0) -> TaskGraph:
    """A serial chain: each task read-writes one shared object."""
    graph = TaskGraph()
    obj = DataObject(name="shared", size_bytes=int(obj_mib * MIB))
    for i in range(n_tasks):
        graph.add(
            Task(
                name=f"step{i}",
                type_name="step",
                accesses={obj: update_footprint(obj.size_bytes, obj.size_bytes)},
                compute_time=1e-4,
                iteration=i,
            )
        )
    return graph


def make_fork_join_graph(width: int = 8, obj_mib: float = 2.0) -> TaskGraph:
    """source -> N independent workers -> sink (classic fork/join)."""
    graph = TaskGraph()
    src_obj = DataObject(name="input", size_bytes=int(obj_mib * MIB))
    outs = [
        DataObject(name=f"out{i}", size_bytes=int(obj_mib * MIB)) for i in range(width)
    ]
    graph.add(
        Task(
            name="source",
            type_name="source",
            accesses={src_obj: write_footprint(src_obj.size_bytes)},
            compute_time=1e-4,
        )
    )
    for i, out in enumerate(outs):
        graph.add(
            Task(
                name=f"work{i}",
                type_name="work",
                accesses={
                    src_obj: read_footprint(src_obj.size_bytes),
                    out: write_footprint(out.size_bytes),
                },
                compute_time=5e-4,
            )
        )
    graph.add(
        Task(
            name="sink",
            type_name="sink",
            accesses={o: read_footprint(o.size_bytes) for o in outs},
            compute_time=1e-4,
        )
    )
    return graph


def run_graph(graph, dram_dev, nvm_dev, policy=None, workers: int = 4, **cfg_kw):
    """Convenience: run a graph on a fresh machine; returns the trace."""
    machine = HeterogeneousMemorySystem(dram_dev, nvm_dev)
    cfg = ExecutorConfig(n_workers=workers, **cfg_kw)
    return Executor(machine, cfg).run(graph, policy or NVMOnlyPolicy())


def dram_for(graph):
    """A DRAM device big enough to hold the graph's working set."""
    return dram(max(2 * graph.total_object_bytes(), 64 * MIB))


#: Per-object value of each demand column a builder call omits: the
#: projection's empty accumulator (confidence 1.0, the rest zero), an
#: NVM-resident object, first used right now.
DEMAND_DEFAULTS = {
    "loads": 0.0,
    "stores": 0.0,
    "misses": 0.0,
    "bw_demand": 0.0,
    "confidence": 1.0,
    "mem_seconds": 0.0,
    "dram_frac": 0.0,
    "in_dram": False,
    "first_use_offset": 0.0,
}


def demand_batch(size_bytes, uid=None, **columns) -> DemandBatch:
    """A planning-ready :class:`DemandBatch` from per-object column lists.

    Built the way the manager builds one — ``from_columns`` then
    ``with_placement``.  ``uid`` defaults to ``1..n``; every other omitted
    column takes its :data:`DEMAND_DEFAULTS` value for each object.
    """
    n = len(size_bytes)
    unknown = set(columns) - set(DEMAND_DEFAULTS)
    assert not unknown, f"unknown demand columns: {sorted(unknown)}"
    col = {name: columns.get(name, [v] * n) for name, v in DEMAND_DEFAULTS.items()}
    batch = DemandBatch.from_columns(
        list(range(1, n + 1)) if uid is None else uid,
        size_bytes,
        col["loads"],
        col["stores"],
        col["misses"],
        col["bw_demand"],
        col["confidence"],
        col["mem_seconds"],
        col["dram_frac"],
    )
    return batch.with_placement(col["in_dram"], col["first_use_offset"])


def successors(graph: TaskGraph, task: Task) -> list[Task]:
    """``task``'s successors in tid order (the graph's exec-core rows)."""
    core = graph.exec_core()
    return [core.tasks[s] for s in core.succ[core.index[task.tid]]]


def predecessors(graph: TaskGraph, task: Task) -> list[Task]:
    """``task``'s predecessors in tid order, read off the exec-core
    successor rows."""
    core = graph.exec_core()
    i = core.index[task.tid]
    preds = [core.tasks[j] for j, succ in enumerate(core.succ) if i in succ]
    return sorted(preds, key=lambda t: t.tid)


def task_depths(graph: TaskGraph) -> dict[int, int]:
    """Longest-path depth of every task (roots at 0), by tid, read off
    the graph's exec-core snapshot."""
    core = graph.exec_core()
    return {t.tid: d for t, d in zip(core.tasks, core.depth.tolist())}


def plan_json(plan: FaultPlan) -> str:
    """A fault plan as the canonical JSON text ``resolve_plan`` and
    ``FaultPlan.from_json`` read."""
    return json.dumps(plan.to_dict(), sort_keys=True, separators=(",", ":"))


def critical_path(graph: TaskGraph, duration) -> tuple[float, list[Task]]:
    """Longest path through the DAG under ``duration`` (ignores worker
    and memory constraints; a lower bound on any makespan).

    A second longest-path walk beside ``TaskGraph.bottom_levels``, kept
    as its oracle: the critical-path scheduler ranks by bottom levels.
    """
    finish: dict[int, float] = {}
    best_pred: dict[int, Task | None] = {}
    for t in graph.topological_order():
        preds = predecessors(graph, t)
        if preds:
            p = max(preds, key=lambda p: finish[p.tid])
            start = finish[p.tid]
            best_pred[t.tid] = p
        else:
            start = 0.0
            best_pred[t.tid] = None
        finish[t.tid] = start + duration(t)
    if not finish:
        return 0.0, []
    end = max(graph.tasks, key=lambda t: finish[t.tid])
    path = []
    cur: Task | None = end
    while cur is not None:
        path.append(cur)
        cur = best_pred[cur.tid]
    return finish[end.tid], list(reversed(path))


def parse_labels_str(text: str) -> dict[str, str]:
    """Inverse of the CSV ``labels`` column encoding
    (``repro.metrics.export._labels_str``).

    Splits on unescaped ``;`` into pairs and on the first unescaped ``=``
    within each pair, then unescapes ``\\\\``/``\\=``/``\\;``.
    """
    if not text:
        return {}
    out: dict[str, str] = {}
    key_parts: list[str] = []
    val_parts: list[str] = []
    current = key_parts
    i = 0
    n = len(text)

    def flush() -> None:
        nonlocal key_parts, val_parts, current
        if key_parts or val_parts:
            out["".join(key_parts)] = "".join(val_parts)
        key_parts, val_parts = [], []
        current = key_parts

    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            current.append(text[i + 1])
            i += 2
            continue
        if ch == ";":
            flush()
        elif ch == "=" and current is key_parts:
            current = val_parts
        else:
            current.append(ch)
        i += 1
    flush()
    return out
