"""Telemetry plane: metrics registry, virtual-time series, placement
audit log, and exporters.

The subsystem mirrors the fault plane's architecture: a frozen
*description* (:class:`TelemetryConfig`) may ride on a ``RunSpec``; the
runtime *mechanism* (:class:`Telemetry`) interposes on the machine only
through explicit hook points (the executor's per-task stream hand-off
and machine-state change points, ``ExecContext`` attachment,
``attach_metrics`` on the HMS / migration engine / allocators);
everything is **off by default** and costs a handful of ``is not None``
checks when disabled.

See ``docs/observability.md`` for the full tour.
"""

from repro.metrics.audit import AuditEntry, PlacementAuditLog
from repro.metrics.export import (
    export_as,
    json_digest,
    to_csv,
    to_json,
    to_prometheus,
)
from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.metrics.service import (
    percentile,
    record_service_metrics,
    service_summary,
    tenant_summaries,
)
from repro.metrics.telemetry import Telemetry, TelemetryConfig, resolve_telemetry

__all__ = [
    "AuditEntry",
    "PlacementAuditLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryConfig",
    "resolve_telemetry",
    "to_json",
    "to_csv",
    "to_prometheus",
    "json_digest",
    "export_as",
    "percentile",
    "record_service_metrics",
    "service_summary",
    "tenant_summaries",
]
