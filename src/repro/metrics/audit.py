"""The placement audit log: every policy decision, with its inputs.

E5-style migration statistics become a *query over the log* instead of a
pile of ad-hoc counters: each entry records which object moved (or was
refused), between which tiers, at what virtual time, the benefit/cost
model inputs behind the decision, and the outcome — including rollbacks
under fault injection.

Entries are appended from exactly two places:

- :meth:`~repro.tasking.executor.ExecContext.request_migration` logs
  every migration request a policy makes (action ``copy``/``remap``/
  ``noop``, outcome ``ok``/``failed``), attaching whatever
  benefit/cost ``inputs`` the policy passed along;
- policies may log *decision* entries directly (``plan``/``skip``
  actions) for choices that never reach the migration engine — the
  data manager records each replan and each refused promotion this way.

Because every engine-visible copy flows through ``request_migration``
(or the executor's emergency write-back path, which also logs), the
number of ``copy`` entries reconciles exactly with
``MigrationEngine.records`` — the invariant the telemetry tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["AuditEntry", "PlacementAuditLog"]

#: Actions an entry may carry.
#: - ``initial`` — a free-of-charge placement before time 0
#: - ``copy``  — a migration was scheduled on the helper lane
#: - ``remap`` — a clean demotion satisfied by remapping (no copy)
#: - ``noop``  — request for the device the object already lives on
#: - ``plan``  — a planning decision (replan scope choice, plan digest)
#: - ``skip``  — a candidate move the policy refused (with the reason)
ACTIONS = ("initial", "copy", "remap", "noop", "plan", "skip")


@dataclass(frozen=True)
class AuditEntry:
    """One placement decision (or refusal), with its model inputs."""

    time: float  #: virtual time of the decision
    action: str  #: see :data:`ACTIONS`
    obj_uid: int = -1  #: object the decision is about (-1: not object-scoped)
    size_bytes: int = 0
    src: str = ""  #: source tier (device name) at decision time
    dst: str = ""  #: requested target tier
    outcome: str = ""  #: "ok" | "failed" (rollback) | "" for plan/skip
    attempts: int = 0  #: copy attempts (fault injection; 0 when n/a)
    #: Benefit/cost model inputs the policy based the decision on
    #: (benefit weight, copy time, backlog, first-use offset, ...).
    inputs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "time": self.time,
            "action": self.action,
            "obj_uid": self.obj_uid,
            "size_bytes": self.size_bytes,
            "src": self.src,
            "dst": self.dst,
            "outcome": self.outcome,
            "attempts": self.attempts,
        }
        if self.inputs:
            out["inputs"] = {k: self.inputs[k] for k in sorted(self.inputs)}
        return out


class PlacementAuditLog:
    """Append-only log of placement decisions for one run."""

    def __init__(self, max_entries: int) -> None:
        self.entries: list[AuditEntry] = []
        self.max_entries = int(max_entries)
        self.dropped = 0

    def record(self, entry: AuditEntry) -> None:
        if len(self.entries) >= self.max_entries:
            self.dropped += 1
            return
        self.entries.append(entry)

    def log(self, time: float, action: str, **kwargs: Any) -> None:
        """Convenience constructor-and-append."""
        if action not in ACTIONS:
            raise ValueError(f"unknown audit action {action!r} (known: {ACTIONS})")
        self.record(AuditEntry(time=time, action=action, **kwargs))

    # ------------------------------------------------------------------
    # Views (E5-style statistics are queries over the exported entries)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def to_list(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self.entries]
