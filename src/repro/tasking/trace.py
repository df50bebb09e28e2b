"""Execution traces: everything the experiment harness reports.

The trace is the simulator's measurement layer — per-task timings, one
DRAM-residency flag per access, migration records (via the engine), and the
aggregate statistics the paper's tables quote (#migrations, migrated MB,
pure runtime overhead %, % overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.memory.migration import MigrationEngine
from repro.tasking.task import Task
from repro.util.units import MIB

__all__ = ["TaskRecord", "ExecutionTrace"]


@dataclass(frozen=True)
class TaskRecord:
    """Timing of one executed task."""

    task: Task
    worker: int
    start: float
    finish: float
    compute_time: float
    memory_time: float
    overhead_time: float  #: placement-policy software overhead
    stall_time: float  #: time spent waiting for in-flight migrations

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class ExecutionTrace:
    """Full record of one simulated run."""

    records: list[TaskRecord] = field(default_factory=list)
    migrations: MigrationEngine | None = None
    makespan: float = 0.0
    n_workers: int = 1
    meta: dict[str, Any] = field(default_factory=dict)
    #: One byte per access of each record (record order, then the task's
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

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_task_time(self) -> float:
        return sum(r.duration for r in self.records)

    @property
    def total_compute_time(self) -> float:
        return sum(r.compute_time for r in self.records)

    @property
    def total_memory_time(self) -> float:
        return sum(r.memory_time for r in self.records)

    @property
    def total_overhead_time(self) -> float:
        return sum(r.overhead_time for r in self.records)

    @property
    def total_stall_time(self) -> float:
        return sum(r.stall_time for r in self.records)

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
            "n_tasks": len(self.records),
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
        for r in self.records:
            assert r.finish >= r.start, "negative duration"
            assert r.finish <= self.makespan + 1e-12, "task finishes after makespan"
            assert r.stall_time >= -1e-12 and r.overhead_time >= -1e-12
        n_accesses = sum(len(r.task.accesses) for r in self.records)
        assert len(self.on_dram) == n_accesses, "one DRAM flag per access"
        # No two records on the same worker may overlap in time.
        by_worker: dict[int, list[TaskRecord]] = {}
        for r in self.records:
            by_worker.setdefault(r.worker, []).append(r)
        for recs in by_worker.values():
            recs.sort(key=lambda r: r.start)
            for a, b in zip(recs, recs[1:]):
                assert a.finish <= b.start + 1e-12, "worker runs two tasks at once"
