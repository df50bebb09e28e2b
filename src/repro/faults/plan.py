"""Fault plans: seeded, frozen descriptions of what goes wrong and when.

A :class:`FaultPlan` is the *specification* half of the fault-injection
subsystem: a hashable, JSON-round-trippable value describing every event
the injector may raise against a run.  It deliberately mirrors
:class:`~repro.experiments.spec.RunSpec`'s design rules — frozen, tuple
fields, canonical dict form — so a plan can ride inside a spec, key the
result cache, and travel to worker processes by value.

Three event families are modelled, matching what NVM-based tiered
memories actually suffer:

- **copy faults** — the helper thread's migration copies fail, either
  probabilistically (``copy_fail_prob``, seeded) or deterministically
  (``copy_fail_every`` = every nth scheduled copy);
- **degraded windows** — a time window in which a named device (or the
  ``"dram"``/``"nvm"`` role) delivers a fraction of its bandwidth and/or
  a multiple of its latency (Optane-style thermal/wear throttling);
- **capacity losses** — at a given virtual time a device loses part of
  its capacity (failed rank / reservation pressure), forcing emergency
  eviction of residents.

The *response* to these events — retries, graceful degradation,
emergency eviction — lives in the runtime itself; see
:mod:`repro.faults.injector` and ``docs/faults.md``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping

from repro.util.validation import did_you_mean, require, require_nonnegative

__all__ = [
    "DegradedWindow",
    "CapacityLoss",
    "FaultPlan",
    "PRESETS",
    "resolve_plan",
    "stress_plan",
]


@dataclass(frozen=True)
class DegradedWindow:
    """Bandwidth/latency degradation on one device over a time window.

    ``device`` is a literal device name or one of the roles ``"dram"`` /
    ``"nvm"`` (resolved by the injector against the actual machine).
    ``end_s`` may be ``inf`` for a whole-run degradation.
    """

    device: str = "nvm"
    start_s: float = 0.0
    end_s: float = float("inf")
    #: Multiplier on delivered bandwidth within the window (0 < x <= 1).
    bandwidth_scale: float = 1.0
    #: Multiplier on device latency within the window (>= 1).
    latency_scale: float = 1.0

    def __post_init__(self) -> None:
        require_nonnegative(self.start_s, "start_s")
        require(self.end_s > self.start_s, "end_s must exceed start_s")
        require(0.0 < self.bandwidth_scale <= 1.0, "bandwidth_scale must be in (0, 1]")
        require(self.latency_scale >= 1.0, "latency_scale must be >= 1")

    @property
    def is_noop(self) -> bool:
        return self.bandwidth_scale == 1.0 and self.latency_scale == 1.0

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class CapacityLoss:
    """At ``at_s`` the device loses ``lose_bytes`` of capacity."""

    device: str = "dram"
    at_s: float = 0.0
    lose_bytes: int = 0

    def __post_init__(self) -> None:
        require_nonnegative(self.at_s, "at_s")
        require_nonnegative(self.lose_bytes, "lose_bytes")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, seeded and frozen.

    Identical plans (same field values, same seed) injected into identical
    runs produce identical traces — the injector derives all randomness
    from ``seed`` alone.
    """

    seed: int = 0
    #: Per-attempt probability that a scheduled migration copy fails.
    copy_fail_prob: float = 0.0
    #: Deterministic alternative/addition: every nth scheduled copy fails
    #: on its first attempt (1-based; ``None`` disables).
    copy_fail_every: int | None = None
    windows: tuple[DegradedWindow, ...] = ()
    capacity_losses: tuple[CapacityLoss, ...] = ()

    def __post_init__(self) -> None:
        require(0.0 <= self.copy_fail_prob <= 1.0, "copy_fail_prob must be in [0, 1]")
        if self.copy_fail_every is not None:
            require(int(self.copy_fail_every) >= 1, "copy_fail_every must be >= 1")
            object.__setattr__(self, "copy_fail_every", int(self.copy_fail_every))
        object.__setattr__(
            self,
            "windows",
            tuple(
                w if isinstance(w, DegradedWindow) else DegradedWindow(**dict(w))
                for w in self.windows
            ),
        )
        object.__setattr__(
            self,
            "capacity_losses",
            tuple(
                c if isinstance(c, CapacityLoss) else CapacityLoss(**dict(c))
                for c in self.capacity_losses
            ),
        )

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return (
            self.copy_fail_prob == 0.0
            and self.copy_fail_every is None
            and all(w.is_noop for w in self.windows)
            and all(c.lose_bytes == 0 for c in self.capacity_losses)
        )

    def label(self) -> str:
        """Short human-readable tag for logs and trace metadata."""
        parts = []
        if self.copy_fail_prob:
            parts.append(f"p={self.copy_fail_prob:g}")
        if self.copy_fail_every is not None:
            parts.append(f"every={self.copy_fail_every}")
        if self.windows:
            parts.append(f"win={len(self.windows)}")
        if self.capacity_losses:
            parts.append(f"caploss={len(self.capacity_losses)}")
        body = ",".join(parts) if parts else "empty"
        return f"faults({body};seed={self.seed})"

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["windows"] = [asdict(w) for w in self.windows]
        out["capacity_losses"] = [asdict(c) for c in self.capacity_losses]
        # inf is not valid JSON; encode open-ended windows as null.
        for w in out["windows"]:
            if w["end_s"] == float("inf"):
                w["end_s"] = None
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        kwargs = dict(data)
        windows = []
        for w in kwargs.pop("windows", ()) or ():
            w = dict(w)
            if w.get("end_s") is None:
                w["end_s"] = float("inf")
            windows.append(DegradedWindow(**w))
        losses = [CapacityLoss(**dict(c)) for c in kwargs.pop("capacity_losses", ()) or ()]
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(windows=tuple(windows), capacity_losses=tuple(losses), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "FaultPlan":
        import dataclasses

        return dataclasses.replace(self, **changes)


# ----------------------------------------------------------------------
# Presets and the E12 intensity dial
# ----------------------------------------------------------------------
def stress_plan(intensity: float, seed: int = 0) -> FaultPlan:
    """A combined stress plan scaled by ``intensity`` in [0, 1].

    At 0 the plan is empty; as intensity rises, copy failures become more
    likely and the NVM tier spends the whole run increasingly throttled —
    the monotone dial E12 sweeps.  Kept capacity-stable so the slowdown
    curve isolates fault handling from working-set effects.
    """
    require(0.0 <= intensity <= 1.0, "intensity must be in [0, 1]")
    if intensity == 0.0:
        return FaultPlan(seed=seed)
    return FaultPlan(
        seed=seed,
        copy_fail_prob=round(0.5 * intensity, 6),
        windows=(
            DegradedWindow(
                device="nvm",
                bandwidth_scale=round(1.0 - 0.5 * intensity, 6),
                latency_scale=round(1.0 + 1.0 * intensity, 6),
            ),
        ),
    )


def _mib(n: int) -> int:
    return n * (1 << 20)


#: Named plans reachable from the CLI (``--faults <preset>``) and tests.
PRESETS: dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "mild": stress_plan(0.25),
    "moderate": stress_plan(0.5),
    "severe": stress_plan(1.0),
    #: Every 3rd migration copy fails on its first attempt — exercises the
    #: retry path deterministically, no RNG involved.
    "flaky-copies": FaultPlan(copy_fail_every=3),
    #: NVM bandwidth brownout across the whole run (wear throttling).
    "brownout": FaultPlan(
        windows=(DegradedWindow(device="nvm", bandwidth_scale=0.5),)
    ),
    #: DRAM loses half the default 256 MiB tier shortly into the run,
    #: forcing emergency eviction of residents.
    "capacity-crunch": FaultPlan(
        capacity_losses=(CapacityLoss(device="dram", at_s=2e-3, lose_bytes=_mib(128)),)
    ),
}


def resolve_plan(value: "FaultPlan | str | Mapping[str, Any] | None") -> FaultPlan | None:
    """Normalize any user-facing fault description to a plan (or ``None``).

    Accepts a plan, a preset name, a JSON string, an ``@path`` reference
    to a JSON file, or a mapping.  Empty plans normalize to ``None`` so a
    fault-free spec stays byte-identical to one that never mentioned
    faults (cache keys included).
    """
    if value is None:
        return None
    if isinstance(value, FaultPlan):
        plan = value
    elif isinstance(value, Mapping):
        plan = FaultPlan.from_dict(value)
    elif isinstance(value, str):
        text = value.strip()
        if text in PRESETS:
            plan = PRESETS[text]
        elif text.startswith("@"):
            from pathlib import Path

            plan = FaultPlan.from_json(Path(text[1:]).expanduser().read_text())
        elif text.startswith("{"):
            plan = FaultPlan.from_json(text)
        else:
            raise KeyError(
                f"unknown fault preset {text!r}{did_you_mean(text, PRESETS)} "
                f"(known: {sorted(PRESETS)}; "
                "a JSON object or @file path also works)"
            )
    else:
        raise TypeError(f"cannot interpret {type(value).__name__} as a FaultPlan")
    return None if plan.is_empty else plan
