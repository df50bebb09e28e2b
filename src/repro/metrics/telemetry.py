"""Telemetry: the per-run bundle of registry + samplers + audit log.

:class:`TelemetryConfig` is the *description* (frozen, hashable — it can
ride on a :class:`~repro.experiments.spec.RunSpec` the same way a
``FaultPlan`` does); :class:`Telemetry` is the *mechanism* for one run.

The executor owns the lifecycle: ``begin_run`` binds instruments to the
machine (HMS, migration engine, allocators) and registers the standard
samplers; ``tick`` advances the samplers as virtual time does;
``end_run`` closes the series at the makespan and freezes the export.

Everything is off by default: an executor built without telemetry pays
one ``is not None`` check per hook point and nothing else, which keeps
the disabled-mode overhead within the <5 % wall-clock budget.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable

from repro.memory.contention import share as bandwidth_share
from repro.metrics.audit import PlacementAuditLog
from repro.metrics.registry import MetricsRegistry
from repro.metrics.samplers import SamplerSet, TimeSeriesSampler
from repro.util.validation import resolve_plane

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hms import HeterogeneousMemorySystem
    from repro.memory.migration import MigrationEngine

__all__ = ["TelemetryConfig", "Telemetry", "resolve_telemetry"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Immutable description of what to record (rides on a RunSpec)."""

    #: Sampler cadence in *virtual* seconds.
    cadence_s: float = 1e-4
    #: Per-series point cap; hitting it halves resolution (decimation).
    max_samples: int = 4096
    #: Record the placement audit log.
    audit: bool = True
    #: Hard cap on audit entries (beyond it, entries are counted as dropped).
    audit_max_entries: int = 100_000
    #: Record the time-series samplers.
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
    """Metrics registry + samplers + audit log for one instrumented run."""

    def __init__(self, config: TelemetryConfig | None = None):
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.samplers = SamplerSet()
        self.audit = PlacementAuditLog(max_entries=self.config.audit_max_entries)
        #: uid -> per-run dense id, set by the executor from the graph's
        #: object order.  Raw uids come from a process-global counter, so
        #: exporting them verbatim would break run-to-run digest equality.
        self.uid_map: dict[int, int] | None = None
        self._finished = False
        self._export: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Lifecycle (driven by the executor)
    # ------------------------------------------------------------------
    def begin_run(
        self,
        hms: "HeterogeneousMemorySystem",
        engine: "MigrationEngine",
        n_workers: int,
        busy_workers: Callable[[float], float],
        active_streams: Callable[[str, float], int],
    ) -> None:
        """Bind instruments to the machine and register the samplers."""
        reg = self.registry
        hms.attach_metrics(reg)
        engine.attach_metrics(reg)
        if not self.config.samplers:
            return
        cfg = self.config
        for dev in (hms.dram, hms.nvm):
            name, cap = dev.name, dev.capacity_bytes
            used_fn = (
                hms.dram_used_bytes if name == hms.dram.name else hms.nvm_used_bytes
            )
            self.samplers.add(
                TimeSeriesSampler(
                    "device_occupancy_bytes",
                    lambda t, fn=used_fn: fn(),
                    cfg.cadence_s,
                    labels={"device": name, "kind": dev.kind.value},
                    max_samples=cfg.max_samples,
                )
            )
            self.samplers.add(
                TimeSeriesSampler(
                    "device_occupancy_fraction",
                    lambda t, fn=used_fn, c=cap: fn() / c,
                    cfg.cadence_s,
                    labels={"device": name, "kind": dev.kind.value},
                    max_samples=cfg.max_samples,
                )
            )
            self.samplers.add(
                TimeSeriesSampler(
                    "device_bandwidth_share",
                    lambda t, n=name: bandwidth_share(active_streams(n, t)),
                    cfg.cadence_s,
                    labels={"device": name, "kind": dev.kind.value},
                    max_samples=cfg.max_samples,
                )
            )
        self.samplers.add(
            TimeSeriesSampler(
                "migration_backlog_seconds",
                lambda t: max(0.0, engine.lane_free_at - t),
                cfg.cadence_s,
                max_samples=cfg.max_samples,
            )
        )
        self.samplers.add(
            TimeSeriesSampler(
                "migration_queue_depth",
                lambda t: engine.queue_depth(t),
                cfg.cadence_s,
                max_samples=cfg.max_samples,
            )
        )
        self.samplers.add(
            TimeSeriesSampler(
                "worker_utilization",
                lambda t: busy_workers(t) / max(1, n_workers),
                cfg.cadence_s,
                max_samples=cfg.max_samples,
            )
        )

    def tick(self, now: float) -> None:
        self.samplers.tick(now)

    def end_run(self, makespan: float) -> None:
        if self._finished:
            return
        self.samplers.finish(makespan)
        self._finished = True

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
            "samplers": self.samplers.to_list(),
            "audit": {
                "entries": entries,
                "n_entries": len(self.audit),
                "dropped": self.audit.dropped,
            },
        }
        if self._finished:
            self._export = out
        return out
