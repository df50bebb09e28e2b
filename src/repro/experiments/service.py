"""Service mode: run a :class:`RunSpec` as an open multi-tenant system.

A closed-DAG spec describes one graph run to completion; a spec carrying
a :class:`StreamSpec` instead describes a *service*: tenants submit that
graph (or their own) as jobs over virtual time, an admission controller
sheds load against per-tenant DRAM-budget credits, and batch scheduling
rounds assign the admitted backlog to service lanes (see
``docs/service.md``).

The stream field follows the faults/telemetry convention exactly:
``resolve_stream`` normalizes anything spec-shaped, and a ``None``
stream is *omitted* from ``RunSpec.to_dict()`` so closed-DAG cache keys
stay byte-identical with every earlier release.

Per-job service times are the jobs' **closed-DAG makespans** under the
spec's policy/machine, computed once per distinct tenant workload
through the cache-aware :func:`run_many` — so an arrival-rate sweep to
saturation re-simulates each graph once, not once per arrival.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any

from repro.experiments.spec import RunResult, RunSpec
from repro.metrics.service import (
    record_service_metrics,
    service_summary,
    tenant_summaries,
)
from repro.tasking.stream import AdmissionController, StreamDriver
from repro.util.units import MIB
from repro.util.validation import resolve_plane
from repro.workloads.arrivals import TenantSpec, generate_arrivals

__all__ = ["StreamSpec", "resolve_stream", "run_service"]


@dataclass(frozen=True)
class StreamSpec:
    """Immutable description of the open-system side of a run."""

    #: Tenant roster; mappings are normalized to :class:`TenantSpec`.
    tenants: Any = ()
    #: Virtual seconds of arrivals to generate (the service then drains).
    horizon_s: float = 0.5
    #: Batch scheduling round cadence in virtual seconds.
    round_interval_s: float = 0.01
    #: Concurrent service lanes (jobs running side by side).
    lanes: int = 2
    #: Arrival-process seed; ``None`` inherits the RunSpec seed (or 0).
    seed: int | None = None

    def __post_init__(self) -> None:
        tenants = tuple(
            t if isinstance(t, TenantSpec) else TenantSpec.from_dict(t)
            for t in (self.tenants or ())
        )
        if not tenants:
            tenants = _default_tenants()
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        object.__setattr__(self, "tenants", tenants)
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.round_interval_s <= 0:
            raise ValueError("round_interval_s must be positive")
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "tenants":
                value = [t.to_dict() for t in value]
            out[f.name] = value
        return out

    def label(self) -> str:
        return f"stream({len(self.tenants)}t,{self.horizon_s:g}s)"


def _default_tenants() -> tuple[TenantSpec, ...]:
    """A small two-tenant mix: steady interactive + bursty batch."""
    return (
        TenantSpec(name="steady", rate_hz=20.0, arrival="poisson", credit_mib=512.0),
        TenantSpec(name="bursty", rate_hz=10.0, arrival="burst", credit_mib=256.0),
    )


def resolve_stream(value: Any) -> StreamSpec | None:
    """Normalize anything spec-shaped into a :class:`StreamSpec` (or
    ``None`` = closed-DAG mode), the same way :func:`resolve_telemetry`
    treats its plane (see :func:`repro.util.validation.resolve_plane`)."""
    return resolve_plane(value, StreamSpec, "stream", "stream spec")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _closed_spec(spec: RunSpec, tenant: TenantSpec) -> RunSpec:
    """The closed-DAG spec for one of a tenant's jobs."""
    overrides = dict(spec.workload_kwargs)
    workload = tenant.workload or spec.workload
    if workload != spec.workload:
        overrides = {}
    overrides.update(tenant.workload_kwargs)
    return spec.replace(stream=None, workload=workload, workload_overrides=overrides)


def _plain_json(value: Any) -> str:
    """:func:`~repro.experiments.spec.canonical_json` of data that is
    already plain JSON (``str`` keys; ``float``/``int``/``str`` leaves in
    lists, tuples and dicts), byte for byte, without its normalizing walk
    over every node."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _tenant_demand_bytes(spec: RunSpec, tenant: TenantSpec) -> int:
    """Working-set size of one of the tenant's jobs (charged as credits)."""
    from repro.experiments.runner import workload_params
    from repro.workloads.memo import build_cached

    closed = _closed_spec(spec, tenant)
    params = workload_params(closed.workload, closed.fast)
    params.update(closed.workload_kwargs)
    return build_cached(closed.workload, **params).total_bytes


def run_service(spec: RunSpec) -> RunResult:
    """Run the open-system service a stream-carrying spec describes.

    Deterministic per (spec, stream seed): arrivals, admission decisions,
    lane assignments, the event log, and every summary number are pure
    functions of the inputs — the property ``tests/test_service_stream.py``
    pins with byte-identity checks.
    """
    from repro.experiments.parallel import run_many
    from repro.metrics.registry import MetricsRegistry

    stream = resolve_stream(spec.stream)
    if stream is None:
        raise ValueError("run_service needs a spec with stream=... set")

    seed = stream.seed
    if seed is None:
        seed = spec.seed if spec.seed is not None else 0

    tenants = stream.tenants
    schedule = generate_arrivals(tenants, stream.horizon_s, seed)

    # One closed-DAG simulation per *distinct* tenant spec (deduped and
    # cached by run_many), not per arrival.
    closed_specs = {t.name: _closed_spec(spec, t) for t in tenants}
    isolated = run_many(
        [closed_specs[t.name] for t in tenants],
        workers=1,
        strict=True,
    )
    makespan = {t.name: r.makespan for t, r in zip(tenants, isolated)}
    demand = {t.name: _tenant_demand_bytes(spec, t) for t in tenants}

    admission = AdmissionController(
        {t.name: int(t.credit_mib * MIB) for t in tenants}
    )
    driver = StreamDriver(
        schedule.submit_s,
        schedule.tenant,
        [demand[t] for t in schedule.tenant],
        admission,
        job_runner=[makespan[t] for t in schedule.tenant].__getitem__,
        round_interval_s=stream.round_interval_s,
        lanes=stream.lanes,
    )
    result = driver.run()

    registry = MetricsRegistry()
    record_service_metrics(result, registry)
    from repro.metrics.export import json_digest

    summary = {
        "mode": "stream",
        "service": service_summary(result),
        "tenants": tenant_summaries(result),
        "isolated_makespan_s": makespan,
        "demand_bytes": demand,
        "n_events": len(result.event_log),
        "event_log_digest": hashlib.sha256(
            _plain_json(result.event_log).encode("utf-8")
        ).hexdigest(),
        "metrics_digest": json_digest(registry.snapshot()),
    }
    out = RunResult(
        spec=spec,
        ok=True,
        makespan=result.horizon_s,
        summary=json.loads(_plain_json(summary)),
    )
    return out
