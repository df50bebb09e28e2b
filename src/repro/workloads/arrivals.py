"""Seeded arrival processes for the open-system service mode.

A :class:`TenantSpec` describes one tenant of the stream driver: the job
graph it submits (a registered workload builder plus overrides), the
arrival process that spaces its submissions over *virtual* time, and the
DRAM-budget credit line the admission controller charges against.

:func:`generate_arrivals` materializes every tenant's process over a
horizon into one globally ordered :class:`Schedule` of job columns.
Everything is driven by :func:`repro.util.rng.spawn_rng` streams keyed by
``(seed, "arrivals", tenant_name)``, so the schedule is bit-reproducible
per seed and independent of tenant declaration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

from repro.util.rng import spawn_rng

__all__ = ["ARRIVAL_KINDS", "Schedule", "TenantSpec", "generate_arrivals"]

#: Supported arrival processes (see :func:`_arrival_times`).
ARRIVAL_KINDS = ("poisson", "burst", "uniform")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the service: workload, arrival process, credit line."""

    name: str
    #: Mean job submissions per virtual second.
    rate_hz: float = 10.0
    #: Arrival process: ``poisson`` (memoryless), ``burst`` (on/off
    #: modulated Poisson preserving the mean rate), ``uniform`` (fixed
    #: gaps — no randomness, useful for drain/equivalence tests).
    arrival: str = "poisson"
    #: Workload each job runs; ``None`` inherits the RunSpec's workload.
    workload: str | None = None
    #: Builder parameter overrides for the job workload (frozen to a
    #: sorted tuple, mirroring ``RunSpec.workload_overrides``).
    workload_overrides: Any = ()
    #: DRAM-budget credit line in MiB; in-flight jobs hold credits equal
    #: to their working set, so this caps the tenant's concurrent
    #: footprint and drives admission under overload.
    credit_mib: float = 512.0
    #: Burst shaping (``arrival="burst"`` only): rate multiplier inside
    #: on-windows, fraction of each cycle spent on, and cycle length.
    burst_factor: float = 4.0
    burst_duty: float = 0.2
    burst_cycle_s: float = 0.05

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.arrival!r} (known: {ARRIVAL_KINDS})"
            )
        if self.rate_hz < 0:
            raise ValueError("rate_hz must be non-negative")
        if self.credit_mib < 0:
            raise ValueError("credit_mib must be non-negative")
        ov = self.workload_overrides or ()
        if isinstance(ov, Mapping):
            ov = tuple(sorted((str(k), ov[k]) for k in ov))
        else:
            ov = tuple(tuple(p) if isinstance(p, (list, tuple)) else p for p in ov)
        object.__setattr__(self, "workload_overrides", ov)

    @property
    def workload_kwargs(self) -> dict[str, Any]:
        return dict(self.workload_overrides)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "workload_overrides":
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpec":
        return cls(**dict(data))


class Schedule(NamedTuple):
    """The merged arrival schedule as columns, one entry per job.

    Job ``i`` is the ``i``-th arrival in global ``(time, tenant, seq)``
    order, so job ids are the dense column positions."""

    #: Submission time in virtual seconds.
    submit_s: list[float]
    #: Submitting tenant's name.
    tenant: list[str]


def _arrival_times(spec: TenantSpec, horizon_s: float, rng: np.random.Generator) -> list[float]:
    """Submission times for one tenant over ``[0, horizon_s)``."""
    if spec.rate_hz <= 0.0 or horizon_s <= 0.0:
        return []
    if spec.arrival == "uniform":
        gap = 1.0 / spec.rate_hz
        # Deterministic fixed spacing, first job half a gap in.
        n = int(horizon_s / gap)
        return [gap * (i + 0.5) for i in range(n) if gap * (i + 0.5) < horizon_s]
    if spec.arrival == "poisson":
        # Gaps come in blocks sized to the expected remaining count; a
        # block's running sum (the carry added to its first gap) is the
        # scalar ``t += gap`` loop's, and a vector draw takes the same
        # variates as that many scalar draws.  Draws past the horizon are
        # discarded: the tenant's generator is its own.
        scale = 1.0 / spec.rate_hz
        times: list[float] = []
        t = 0.0
        while True:
            gaps = rng.exponential(scale, size=int(spec.rate_hz * (horizon_s - t)) + 1)
            gaps[0] += t
            block = np.cumsum(gaps)
            stop = int(np.searchsorted(block, horizon_s, side="left"))
            times.extend(block[:stop].tolist())
            if stop < len(block):
                return times
            t = float(block[-1])
    # burst: thinned Poisson — candidates at the on-window peak rate,
    # accepted with probability current_rate / peak_rate, which keeps the
    # long-run mean at rate_hz while concentrating mass in the on-windows.
    # Each candidate draws its gap, then its uniform.
    duty = min(max(spec.burst_duty, 1e-6), 1.0)
    factor = max(spec.burst_factor, 1.0)
    peak = spec.rate_hz * factor
    off_rate = spec.rate_hz * max(0.0, 1.0 - factor * duty) / max(1e-12, 1.0 - duty)
    cycle = max(spec.burst_cycle_s, 1e-9)
    on_span = duty * cycle
    off_accept = off_rate / peak
    scale = 1.0 / peak
    exponential = rng.exponential
    uniform = rng.random
    times = []
    t = 0.0
    while True:
        t += exponential(scale)
        if t >= horizon_s:
            return times
        if uniform() < (1.0 if t % cycle < on_span else off_accept):
            times.append(t)


def generate_arrivals(
    tenants: Iterable[TenantSpec], horizon_s: float, seed: int
) -> Schedule:
    """Materialize every tenant's process into one global schedule.

    Each tenant draws from an independent stream keyed by its name, so
    adding or reordering tenants never perturbs another tenant's
    schedule.  Jobs are ordered by ``(time, tenant, seq)``, ``seq``
    being the tenant's own submission index, and numbered densely in
    that order.
    """
    merged: list[tuple[float, str, int]] = []
    for spec in tenants:
        rng = spawn_rng(seed, "arrivals", spec.name)
        name = spec.name
        merged.extend(
            (t, name, i) for i, t in enumerate(_arrival_times(spec, horizon_s, rng))
        )
    merged.sort()
    return Schedule([m[0] for m in merged], [m[1] for m in merged])


def tenant_from_json(text: str | Mapping[str, Any]) -> TenantSpec:
    """Build a :class:`TenantSpec` from a mapping or JSON-object string."""
    if isinstance(text, Mapping):
        return TenantSpec.from_dict(text)
    return TenantSpec.from_dict(json.loads(text))
