"""Telemetry: the per-run bundle of registry + time series + audit log.

:class:`TelemetryConfig` is the *description* (frozen, hashable — it can
ride on a :class:`~repro.experiments.spec.RunSpec` the same way a
``FaultPlan`` does); :class:`Telemetry` is the *mechanism* for one run.

The executor owns the lifecycle: ``begin_run`` binds instruments to the
machine (HMS, migration engine, allocators); during the run the executor
hands over each dispatched task's stream span and notes the machine
state after every event that changes it (``note_machine``);
``end_run`` expands those change points onto the cadence grid and
freezes the export.  Machine state only changes at events, so every
series is a step function, exact at each boundary.

Everything is off by default: an executor built without telemetry pays
one ``is not None`` check per hook point and nothing else, which keeps
the disabled-mode overhead within the <5 % wall-clock budget.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.memory.contention import share as bandwidth_share
from repro.metrics.audit import PlacementAuditLog
from repro.metrics.registry import MetricsRegistry
from repro.util.validation import resolve_plane

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hms import HeterogeneousMemorySystem
    from repro.memory.migration import MigrationEngine
    from repro.tasking.trace import ExecutionTrace

__all__ = ["TelemetryConfig", "Telemetry", "resolve_telemetry"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Immutable description of what to record (rides on a RunSpec)."""

    #: Time-series grid spacing in *virtual* seconds.
    cadence_s: float = 1e-4
    #: Per-series point cap; the grid's spacing doubles until it fits.
    max_samples: int = 4096
    #: Record the placement audit log.
    audit: bool = True
    #: Hard cap on audit entries (beyond it, entries are counted as dropped).
    audit_max_entries: int = 100_000
    #: Record the time series.
    samplers: bool = True

    def __post_init__(self) -> None:
        if self.cadence_s <= 0:
            raise ValueError("cadence_s must be positive")
        if self.max_samples < 2:
            raise ValueError("max_samples must be >= 2")

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def label(self) -> str:
        return f"telemetry(cadence={self.cadence_s:g})"


def resolve_telemetry(value: Any) -> TelemetryConfig | None:
    """Normalize anything spec-shaped into a config (or ``None`` = off):
    ``None``/``False``, ``True``/``"on"``, a mapping or JSON-object string
    of field overrides, or a ready :class:`TelemetryConfig` (see
    :func:`repro.util.validation.resolve_plane`)."""
    return resolve_plane(value, TelemetryConfig, "telemetry", "telemetry config")


class Telemetry:
    """Metrics registry + time series + audit log for one instrumented run."""

    def __init__(self, config: TelemetryConfig | None = None):
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.audit = PlacementAuditLog(max_entries=self.config.audit_max_entries)
        #: uid -> per-run dense id, set by the executor from the graph's
        #: object order.  Raw uids come from a process-global counter, so
        #: exporting them verbatim would break run-to-run digest equality.
        self.uid_map: dict[int, int] | None = None
        #: Per dispatched task (dispatch order), the executor's running-heap
        #: entry ``(stream end, tid, touches DRAM, touches NVM)``.
        self.streams: list[tuple[float, int, bool, bool]] = []
        #: Machine-state change points ``(time, DRAM used bytes, NVM used
        #: bytes, copy-lane free time, copies scheduled)`` in the order the
        #: events happened.  Their stamps need not be monotone: a policy
        #: stamps its own migration requests.
        self._notes: list[tuple[float, int, int, float, int]] = []
        self._hms: "HeterogeneousMemorySystem | None" = None
        self._engine: "MigrationEngine | None" = None
        self._series: list[dict[str, Any]] = []
        self._finished = False
        self._export: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Lifecycle (driven by the executor)
    # ------------------------------------------------------------------
    def begin_run(
        self, hms: "HeterogeneousMemorySystem", engine: "MigrationEngine"
    ) -> None:
        """Bind instruments to the machine (HMS, allocators, copy lane)."""
        hms.attach_metrics(self.registry)
        engine.attach_metrics(self.registry)
        self._hms = hms
        self._engine = engine

    def note_machine(self, now: float) -> None:
        """Record the occupancy and copy-lane state after an event stamped
        ``now`` (initial placement, a copy/remap/rollback, a capacity
        loss)."""
        hms, engine = self._hms, self._engine
        self._notes.append(
            (
                now,
                hms.dram_used_bytes(),
                hms.nvm_used_bytes(),
                engine.lane_free_at,
                len(engine.records),
            )
        )

    def end_run(self, trace: "ExecutionTrace") -> None:
        """Observe the per-task instruments from the trace's columns and
        expand the change points onto the cadence grid."""
        if self._finished:
            return
        self._observe_tasks(trace)
        if self.config.samplers:
            self._series = self._expand(trace)
        self._finished = True

    def _observe_tasks(self, trace: "ExecutionTrace") -> None:
        # Dispatch order, so the float sums accumulate task by task; an
        # instrument appears only with its first observation (a run that
        # never stalls exports no stall histogram).
        reg = self.registry
        durations = trace.durations()
        if durations:
            reg.counter("tasks_completed_total", help="Tasks run to completion").inc(
                len(durations)
            )
            hist = reg.histogram(
                "task_duration_seconds",
                help="End-to-end task time incl. overhead (virtual seconds)",
            )
            for d in durations:
                hist.observe(d)
        stalls = [s for s in trace.stall_time if s > 0]
        if stalls:
            hist = reg.histogram(
                "task_stall_seconds", help="Time spent waiting for in-flight migrations"
            )
            for s in stalls:
                hist.observe(s)
        overheads = [o for o in trace.overhead_time if o > 0]
        if overheads:
            counter = reg.counter(
                "policy_overhead_seconds_total",
                help="Software overhead charged by the placement policy",
            )
            for o in overheads:
                counter.inc(o)

    def _grid(self, makespan: float) -> tuple[np.ndarray, float]:
        """Boundaries ``0, c, 2c, ...`` up to the makespan, closed by the
        makespan itself; ``c`` doubles from ``cadence_s`` until there are
        fewer than ``max_samples`` points (or a single interval is left)."""
        cadence = self.config.cadence_s
        while True:
            k = int(makespan // cadence)
            closes = k * cadence < makespan
            if k + 1 + closes < self.config.max_samples or k == 0:
                break
            cadence *= 2.0
        grid = np.arange(k + 1) * cadence
        if closes:
            grid = np.append(grid, makespan)
        return grid, cadence

    def _expand(self, trace: "ExecutionTrace") -> list[dict[str, Any]]:
        """Every series at every boundary ``b``: the state after each event
        stamped at or before ``b``."""
        grid, cadence = self._grid(trace.makespan)

        def upto(stamps: Any) -> np.ndarray:
            """Per boundary, how many of ``stamps`` are at or before it."""
            return np.searchsorted(np.sort(stamps), grid, side="right")

        hms, engine = self._hms, self._engine
        start = np.asarray(trace.start, dtype=float)
        streams = np.array(self.streams, dtype=float).reshape(-1, 4)
        busy = upto(start) - upto(trace.finish)

        # Change points in stamp order; ``at`` is each boundary's last one.
        # Occupancy and the copy count add up their deltas; the lane's free
        # time only grows in event order, so it takes the running maximum.
        notes = np.array(self._notes, dtype=float)
        order = np.argsort(notes[:, 0], kind="stable")
        at = np.searchsorted(notes[order, 0], grid, side="right") - 1
        deltas = np.diff(notes[:, [1, 2, 4]], axis=0, prepend=0.0)[order]
        dram_used, nvm_used, copies = np.cumsum(deltas, axis=0)[at].T
        lane = np.maximum.accumulate(notes[order, 3])[at]
        landed = upto([r.end_time for r in engine.records])

        series = [
            ("migration_backlog_seconds", {}, np.maximum(0.0, lane - grid)),
            ("migration_queue_depth", {}, copies - landed),
            ("worker_utilization", {}, busy / max(1, trace.n_workers)),
        ]
        for dev, used, tier in ((hms.dram, dram_used, 2), (hms.nvm, nvm_used, 3)):
            labels = {"device": dev.name, "kind": dev.kind.value}
            on = streams[:, tier] > 0
            active = upto(start[on]) - upto(streams[on, 0])
            counts, which = np.unique(active, return_inverse=True)
            share = np.array([bandwidth_share(n) for n in counts.tolist()])[which]
            series += [
                ("device_occupancy_bytes", labels, used),
                ("device_occupancy_fraction", labels, used / dev.capacity_bytes),
                ("device_bandwidth_share", labels, share),
            ]
        t = grid.tolist()
        return [
            {
                "name": name,
                "labels": dict(sorted(labels.items())),
                "cadence_s": cadence,
                "t": t,
                "v": np.asarray(values, dtype=float).tolist(),
            }
            for name, labels, values in sorted(
                series, key=lambda s: (s[0], sorted(s[1].items()))
            )
        ]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> dict[str, Any]:
        """Plain-data snapshot of everything recorded (exporter input).

        Stable across calls after ``end_run``; deterministic for a given
        (RunSpec, seed) because nothing here ever reads a wall clock.
        """
        if self._export is not None and self._finished:
            return self._export
        entries = self.audit.to_list()
        if self.uid_map is not None:
            remap = self.uid_map
            for e in entries:
                e["obj_uid"] = remap.get(e["obj_uid"], e["obj_uid"])
                inputs = e.get("inputs")
                if inputs and "for_uid" in inputs:
                    inputs["for_uid"] = remap.get(inputs["for_uid"], inputs["for_uid"])
        out = {
            "config": self.config.to_dict(),
            "metrics": self.registry.snapshot(),
            "samplers": self._series,
            "audit": {
                "entries": entries,
                "n_entries": len(self.audit),
                "dropped": self.audit.dropped,
            },
        }
        if self._finished:
            self._export = out
        return out
