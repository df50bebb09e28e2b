"""Trace export: Chrome-trace JSON and an ASCII Gantt chart.

- :func:`to_chrome_trace` emits the Trace Event Format consumed by
  ``chrome://tracing`` / Perfetto: one row per worker, one row for the
  helper thread's copy lane, with stall/overhead sub-slices.  Telemetry
  samplers (when the run was instrumented) become counter tracks.
- :func:`ascii_gantt` renders a terminal-friendly timeline, handy inside
  examples and for eyeballing where migrations landed.
"""

from __future__ import annotations

import json
from typing import Any

from repro.tasking.trace import ExecutionTrace
from repro.util.units import US

__all__ = ["to_chrome_trace", "ascii_gantt"]


def to_chrome_trace(trace: ExecutionTrace) -> str:
    """Serialize the run in Chrome Trace Event Format (JSON string)."""
    events: list[dict[str, Any]] = []

    def slice_event(name, cat, start, dur, tid, args=None):
        events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start / US,  # chrome uses microseconds
                "dur": max(dur, 0.0) / US,
                "pid": 0,
                "tid": tid,
                "args": args or {},
            }
        )

    for task, worker, start, dur, compute, mem, stall in zip(
        trace.tasks,
        trace.worker,
        trace.start,
        trace.durations(),
        trace.compute_time,
        trace.memory_time,
        trace.stall_time,
    ):
        base = {
            "type": task.type_name,
            "compute_ms": round(compute * 1e3, 4),
            "memory_ms": round(mem * 1e3, 4),
        }
        slice_event(task.name, "task", start, dur, worker, base)
        if stall > 0:
            slice_event(f"{task.name}:stall", "stall", start, stall, worker)

    lane_tid = trace.n_workers + 1
    if trace.migrations is not None:
        for m in trace.migrations.records:
            args = {"bytes": m.nbytes, "src": m.src, "dst": m.dst}
            name = f"copy uid={m.obj_uid}"
            if m.attempts > 1:
                args["attempts"] = m.attempts
            if m.failed:
                name = f"copy uid={m.obj_uid} (FAILED)"
                args["failed"] = True
            slice_event(name, "migration", m.start_time, m.duration, lane_tid, args)

    fault_tid = trace.n_workers + 2
    if trace.faults:
        for s in trace.faults.get("degraded_slices", []):
            slice_event(
                f"degraded {s['device']} (bw x{s['bandwidth_scale']:g}, "
                f"lat x{s['latency_scale']:g})",
                "fault",
                s["start_s"],
                s["end_s"] - s["start_s"],
                fault_tid,
                {k: v for k, v in s.items()},
            )
        for e in trace.faults.get("events", []):
            events.append(
                {
                    "name": e["kind"],
                    "cat": "fault",
                    "ph": "i",
                    "s": "p",
                    "ts": e["time"] / US,
                    "pid": 0,
                    "tid": lane_tid if e["kind"] == "copy-fail" else fault_tid,
                    "args": {
                        "device": e["device"],
                        "detail": e["detail"],
                        "bytes": e["nbytes"],
                    },
                }
            )

    if trace.telemetry is not None:
        for s in trace.telemetry.get("samplers", []):
            label = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
            name = f"{s['name']}{{{label}}}" if label else s["name"]
            for t, v in zip(s["t"], s["v"]):
                events.append(
                    {
                        "name": name,
                        "cat": "telemetry",
                        "ph": "C",
                        "ts": t / US,
                        "pid": 0,
                        "args": {"value": v},
                    }
                )

    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": w,
            "args": {"name": f"worker {w}"},
        }
        for w in range(trace.n_workers)
    ]
    meta.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": lane_tid,
            "args": {"name": "helper thread (copies)"},
        }
    )
    if trace.faults:
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": fault_tid,
                "args": {"name": "injected faults"},
            }
        )
    return json.dumps({"traceEvents": meta + events}, indent=None)


def ascii_gantt(trace: ExecutionTrace, width: int = 80) -> str:
    """Render the run as a per-worker ASCII timeline.

    ``#`` task execution, ``.`` idle, ``~`` migration copy in flight on
    the helper lane.  Under fault injection a ``faults`` row appears:
    ``x`` marks degraded windows, ``!`` marks injection events (copy
    failures, capacity losses).
    """
    if trace.makespan <= 0 or not trace.tasks:
        return "(empty trace)"
    scale = width / trace.makespan

    def paint(row: list[str], start: float, end: float, ch: str) -> None:
        a = min(width - 1, max(0, int(start * scale)))
        b = min(width, max(a + 1, int(end * scale)))
        for i in range(a, b):
            row[i] = ch

    lines = []
    for w in range(trace.n_workers):
        row = ["."] * width
        for worker, start, finish in zip(trace.worker, trace.start, trace.finish):
            if worker == w:
                paint(row, start, finish, "#")
        lines.append(f"worker {w:2d} |{''.join(row)}|")
    if trace.migrations is not None and trace.migrations.records:
        row = ["."] * width
        for m in trace.migrations.records:
            paint(row, m.start_time, m.end_time, "~")
        lines.append(f"copies    |{''.join(row)}|")
    if trace.faults:
        row = ["."] * width
        for s in trace.faults.get("degraded_slices", []):
            paint(row, s["start_s"], s["end_s"], "x")
        for e in trace.faults.get("events", []):
            paint(row, e["time"], e["time"], "!")
        lines.append(f"faults    |{''.join(row)}|")
    lines.append(
        f"           0 {'-' * (width - 12)} {trace.makespan * 1e3:.1f} ms"
    )
    return "\n".join(lines)
