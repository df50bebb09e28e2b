"""Exporters for one run's telemetry: canonical JSON, CSV, Prometheus.

- :func:`to_json` — deterministic canonical JSON (sorted keys, no
  whitespace drift) of the full export (metrics + samplers + audit),
  plus :func:`json_digest` for the byte-identity regression tests.
- :func:`to_csv` — one flat long-form CSV (easy to load into pandas /
  a spreadsheet): metric rows and sampler points share a schema.
- :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` + samples) of the final registry state;
  counters keep their names, histograms expand into
  ``_bucket``/``_sum``/``_count`` as the format requires.

Each takes ``data``, a live :class:`~repro.metrics.telemetry.Telemetry`,
a bare :class:`~repro.metrics.registry.MetricsRegistry`, or the plain
export / snapshot mapping either produces — so cached results (which
only carry the dict) export identically to fresh runs, in every format —
and returns the text.  ``to_json`` also takes a keyword-only ``indent``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from typing import Any, Callable, Mapping

from repro.metrics.registry import MetricsRegistry
from repro.metrics.telemetry import Telemetry

__all__ = [
    "to_json",
    "json_digest",
    "to_csv",
    "to_prometheus",
    "EXPORT_FORMATS",
    "export_as",
]

#: Prefix every exposed metric name carries in the Prometheus output.
PROM_PREFIX = "repro_"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def _as_export(data: Telemetry | MetricsRegistry | Mapping[str, Any]) -> dict[str, Any]:
    if isinstance(data, Telemetry):
        return data.export()
    if isinstance(data, MetricsRegistry):
        return {"metrics": data.snapshot()}
    return dict(data)


# ----------------------------------------------------------------------
# Canonical JSON
# ----------------------------------------------------------------------
def to_json(
    data: Telemetry | MetricsRegistry | Mapping[str, Any],
    *,
    indent: int | None = None,
) -> str:
    """Canonical JSON: sorted keys, fixed separators, no NaN/Infinity."""
    export = _as_export(data)
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(
        export, sort_keys=True, separators=separators, indent=indent, allow_nan=False
    )


def json_digest(data: Telemetry | MetricsRegistry | Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON — the regression tests' byte identity."""
    return hashlib.sha256(to_json(data).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
_CSV_COLUMNS = ("record", "name", "labels", "field", "time", "value")


def _escape_label_part(part: str) -> str:
    """Escape one key or value for the ``k=v;k=v`` labels column.

    Backslash-escapes the three structural characters (``\\``, ``=``,
    ``;``) so a value containing them round-trips instead of producing an
    ambiguous row.  Backslash goes first so escapes never double-expand.
    """
    return (
        part.replace("\\", "\\\\").replace("=", "\\=").replace(";", "\\;")
    )


def _labels_str(labels: Mapping[str, str]) -> str:
    return ";".join(
        f"{_escape_label_part(str(k))}={_escape_label_part(str(labels[k]))}"
        for k in sorted(labels)
    )


def to_csv(data: Telemetry | MetricsRegistry | Mapping[str, Any]) -> str:
    """Long-form CSV: one row per metric sample / sampler point / audit entry."""
    export = _as_export(data)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for s in export.get("metrics", {}).get("series", []):
        labels = _labels_str(s.get("labels", {}))
        if s["kind"] == "histogram":
            w.writerow(["metric", s["name"], labels, "sum", "", s["sum"]])
            w.writerow(["metric", s["name"], labels, "count", "", s["count"]])
            for b in s.get("buckets", []):
                w.writerow(
                    ["metric", s["name"], labels, f"le={b['le']}", "", b["count"]]
                )
        else:
            w.writerow(["metric", s["name"], labels, s["kind"], "", s["value"]])
    for series in export.get("samplers", []):
        labels = _labels_str(series.get("labels", {}))
        for t, v in zip(series["t"], series["v"]):
            w.writerow(["sample", series["name"], labels, "", t, v])
    for e in export.get("audit", {}).get("entries", []):
        w.writerow(
            [
                "audit",
                e["action"],
                f"uid={e['obj_uid']};src={e['src']};dst={e['dst']};outcome={e['outcome']}",
                json.dumps(e.get("inputs", {}), sort_keys=True),
                e["time"],
                e["size_bytes"],
            ]
        )
    return buf.getvalue()


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    out = PROM_PREFIX + re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_RE.fullmatch(out):  # pragma: no cover - prefix guarantees a letter
        out = "_" + out
    return out


def _prom_escape_help(value: str) -> str:
    """Escape HELP text: the exposition format escapes only ``\\`` and
    newline there — double quotes pass through verbatim (escaping them as
    ``\\"`` renders an invalid HELP line)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_escape_label_value(value: str) -> str:
    """Escape a label value: ``\\``, ``"`` and newline, per the format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str], extra: Mapping[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_prom_escape_label_value(str(merged[k]))}"' for k in sorted(merged)
    )
    return "{" + inner + "}"


def _prom_float(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v != v:  # pragma: no cover - NaN never produced
        return "NaN"
    return repr(float(v))


def _prom_le(le: Any) -> str:
    return "+Inf" if le == "+Inf" else _prom_float(float(le))


def _prom_lines(
    series: list[Mapping[str, Any]], help_of: Callable[[str], str] | None = None
) -> list[str]:
    """Exposition lines from registry-snapshot series (the JSON export's
    ``metrics.series`` list), with ``# HELP`` lines from ``help_of``
    when given (a snapshot carries no HELP text)."""
    by_name: dict[str, list[Mapping[str, Any]]] = {}
    for entry in series:
        by_name.setdefault(entry["name"], []).append(entry)

    lines: list[str] = []
    for name in sorted(by_name):
        entries = by_name[name]
        pname = _prom_name(name)
        help_text = help_of(name) if help_of is not None else ""
        if help_text:
            lines.append(f"# HELP {pname} {_prom_escape_help(help_text)}")
        lines.append(f"# TYPE {pname} {entries[0]['kind']}")
        for entry in entries:
            labels = entry.get("labels", {})
            if entry["kind"] == "histogram":
                for b in entry.get("buckets", []):
                    lines.append(
                        f"{pname}_bucket"
                        f"{_prom_labels(labels, {'le': _prom_le(b['le'])})}"
                        f" {b['count']}"
                    )
                lines.append(
                    f"{pname}_sum{_prom_labels(labels)} {_prom_float(entry['sum'])}"
                )
                lines.append(f"{pname}_count{_prom_labels(labels)} {entry['count']}")
            else:
                lines.append(
                    f"{pname}{_prom_labels(labels)} {_prom_float(entry['value'])}"
                )
    return lines


def to_prometheus(data: Telemetry | MetricsRegistry | Mapping[str, Any]) -> str:
    """Final registry state in the Prometheus text exposition format.

    Accepts a live ``Telemetry``/``MetricsRegistry`` (full output,
    including HELP lines) or a plain export/snapshot mapping — either the
    full telemetry export (``{"metrics": {"series": [...]}}``) or a bare
    registry snapshot (``{"series": [...]}``) — so cached results render
    too (sans HELP, which snapshots don't carry).  Time series and the
    audit log have no place in a point-in-time scrape; they live in the
    JSON/CSV exports.
    """
    if isinstance(data, Telemetry):
        data = data.registry
    if isinstance(data, MetricsRegistry):
        snapshot = data.snapshot(every_bucket=True)
        lines = _prom_lines(snapshot["series"], data.help_of)
    else:
        body = data.get("metrics", data)
        series = body.get("series") if isinstance(body, Mapping) else None
        if series is None:
            raise ValueError(
                "mapping passed to to_prometheus() carries no metric series "
                "(expected a telemetry export or a registry snapshot)"
            )
        lines = _prom_lines(list(series))
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
EXPORT_FORMATS = ("json", "csv", "prom")


def export_as(data: Telemetry | MetricsRegistry | Mapping[str, Any], fmt: str) -> str:
    """Render telemetry in the named format (CLI ``--format`` values)."""
    if fmt == "json":
        return to_json(data, indent=2)
    if fmt == "csv":
        return to_csv(data)
    if fmt in ("prom", "prometheus", "openmetrics"):
        return to_prometheus(data)
    raise ValueError(f"unknown export format {fmt!r} (known: {EXPORT_FORMATS})")
