"""Execution traces: everything the experiment harness reports.

The trace is the simulator's measurement layer — per-task timing columns,
one DRAM-residency flag per access, migration records (via the engine),
and the aggregate statistics the paper's tables quote (#migrations,
migrated MB, pure runtime overhead %, % overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.memory.migration import MigrationEngine
from repro.tasking.graph import AccessCSR
from repro.tasking.task import Task
from repro.util.units import MIB

__all__ = ["ExecutionTrace"]


@dataclass
class ExecutionTrace:
    """Full record of one simulated run.

    Per-task timings are columns, one list entry per executed task in
    dispatch order: ``tasks[i]`` ran on ``worker[i]`` from ``start[i]``
    to ``finish[i]`` (including the policy's after-task overhead).
    ``index[i]`` is its dense index into ``accesses``, the access table
    of the graph version that ran.
    """

    tasks: list[Task] = field(default_factory=list)
    worker: list[int] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    finish: list[float] = field(default_factory=list)
    compute_time: list[float] = field(default_factory=list)
    memory_time: list[float] = field(default_factory=list)
    #: Placement-policy software overhead, before- plus after-task.
    overhead_time: list[float] = field(default_factory=list)
    #: Time spent waiting for in-flight migrations.
    stall_time: list[float] = field(default_factory=list)
    index: list[int] = field(default_factory=list)
    accesses: AccessCSR | None = field(default=None, repr=False, compare=False)
    migrations: MigrationEngine | None = None
    makespan: float = 0.0
    n_workers: int = 1
    meta: dict[str, Any] = field(default_factory=dict)
    #: One byte per access of each task (dispatch order, then the task's
    #: declaration order): 1 when the object was DRAM-resident at task
    #: start.
    on_dram: bytearray = field(default_factory=bytearray)
    #: Fault-injection digest (see :mod:`repro.faults`): injected /
    #: retried / recovered / failed counts, capacity losses, degraded-time
    #: slices and the raw injection events.  ``None`` for fault-free runs,
    #: which keeps their summaries byte-identical to builds without the
    #: subsystem.
    faults: dict[str, Any] | None = None
    #: Telemetry export (see :mod:`repro.metrics`): metric series,
    #: time-series samples and the placement audit log.  ``None`` for
    #: uninstrumented runs — same omitted-when-off convention as faults,
    #: so disabling telemetry keeps summaries byte-identical.
    telemetry: dict[str, Any] | None = None

    @property
    def records(self) -> list[Task]:
        """Read-only alias of :attr:`tasks` (the benchmark harness counts
        tasks through it)."""
        return self.tasks

    def durations(self) -> list[float]:
        """Per-task ``finish - start``, in dispatch order."""
        return [f - s for f, s in zip(self.finish, self.start)]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_task_time(self) -> float:
        return sum(self.durations())

    @property
    def total_compute_time(self) -> float:
        return sum(self.compute_time)

    @property
    def total_memory_time(self) -> float:
        return sum(self.memory_time)

    @property
    def total_overhead_time(self) -> float:
        return sum(self.overhead_time)

    @property
    def total_stall_time(self) -> float:
        return sum(self.stall_time)

    def overhead_fraction(self) -> float:
        """Pure runtime cost as a fraction of makespan ("pure runtime cost"
        in the paper's migration table: profiling + modeling + helper-thread
        synchronization, excluding the copies themselves)."""
        if self.makespan <= 0:
            return 0.0
        return self.total_overhead_time / (self.makespan * self.n_workers)

    def worker_utilization(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.total_task_time / (self.makespan * self.n_workers)

    # Migration statistics (Table-5 analogues) -------------------------
    @property
    def migration_count(self) -> int:
        return self.migrations.migration_count if self.migrations else 0

    @property
    def migrated_mib(self) -> float:
        return (self.migrations.migrated_bytes / MIB) if self.migrations else 0.0

    def migration_overlap(self) -> float:
        return self.migrations.overlap_fraction() if self.migrations else 1.0

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Flat metrics dict for tables and regression tests."""
        out = {
            "makespan": self.makespan,
            "n_tasks": len(self.tasks),
            "n_workers": self.n_workers,
            "utilization": self.worker_utilization(),
            "compute_time": self.total_compute_time,
            "memory_time": self.total_memory_time,
            "overhead_time": self.total_overhead_time,
            "stall_time": self.total_stall_time,
            "overhead_fraction": self.overhead_fraction(),
            "migrations": self.migration_count,
            "migrated_mib": self.migrated_mib,
            "migration_overlap": self.migration_overlap(),
            **self.meta,
        }
        if self.faults is not None:
            out["faults"] = self.faults
        if self.telemetry is not None:
            out["telemetry"] = {
                "n_metric_series": len(self.telemetry["metrics"]["series"]),
                "n_sampler_series": len(self.telemetry["samplers"]),
                "n_audit_entries": self.telemetry["audit"]["n_entries"],
            }
        return out

    def validate(self) -> None:
        """Sanity invariants used by integration and property tests."""
        start, finish = self.start, self.finish
        for s, f, ovh, stall in zip(start, finish, self.overhead_time, self.stall_time):
            assert f >= s, "negative duration"
            assert f <= self.makespan + 1e-12, "task finishes after makespan"
            assert stall >= -1e-12 and ovh >= -1e-12
        n_accesses = sum(len(t.accesses) for t in self.tasks)
        assert len(self.on_dram) == n_accesses, "one DRAM flag per access"
        assert len(self.index) == len(self.tasks), "one dense index per task"
        if self.tasks:
            assert self.accesses is not None, "no access table for the indices"
            ptr = self.accesses.indptr.tolist()
            for i, t in zip(self.index, self.tasks):
                assert ptr[i + 1] - ptr[i] == len(t.accesses), "index misses its task's rows"
        # No two tasks on the same worker may overlap in time.
        spans = sorted(zip(self.worker, start, finish))
        for (wa, _, fa), (wb, sb, _) in zip(spans, spans[1:]):
            assert wa != wb or fa <= sb + 1e-12, "worker runs two tasks at once"
