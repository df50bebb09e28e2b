"""Service-mode metrics: per-tenant slowdown percentiles, admission
counters, and round-duration samplers.

Everything here is a pure, deterministic function of a
:class:`~repro.tasking.stream.StreamResult`'s columns — values are virtual-time
only and percentiles use nearest-rank, so two runs of the same stream
spec under the same seed summarize byte-identically (the same property
the telemetry exporters pin).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.util.numeric import running_total

if TYPE_CHECKING:  # structural only; no runtime dependency on tasking
    from repro.tasking.stream import StreamResult

__all__ = [
    "percentile",
    "tenant_summaries",
    "service_summary",
    "record_service_metrics",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples.

    Nearest-rank (not interpolated) so the result is always an observed
    sample and stable under float formatting.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q out of range: {q}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100)) if q > 0 else 1
    return float(ordered[min(int(rank), len(ordered)) - 1])


def _completed(result: "StreamResult") -> list[int]:
    """Ids of the jobs that ran, in job-id order."""
    return [j for j, rejected in enumerate(result.job_rejected) if not rejected]


def tenant_summaries(result: "StreamResult") -> dict[str, dict[str, float]]:
    """Per-tenant service quality, keyed by tenant name (sorted).

    Slowdown is response time over isolated service time, so 1.0 means a
    job ran as if it had the machine to itself; the p99 tail is the
    headline multi-tenancy metric in E13.
    """
    tenants = sorted(result.admitted)
    done: dict[str, list[int]] = {t: [] for t in tenants}
    n_rejected = dict.fromkeys(tenants, 0)
    for j, (tenant, rejected) in enumerate(zip(result.tenant, result.job_rejected)):
        if rejected:
            n_rejected[tenant] += 1
        else:
            done[tenant].append(j)

    slowdown, response, service = result.slowdown, result.response, result.service
    out: dict[str, dict[str, float]] = {}
    for tenant in tenants:
        jobs = done[tenant]
        # Sorted once: percentile's own sort of a sorted list is linear.
        slowdowns = sorted([slowdown[j] for j in jobs])
        responses = sorted([response[j] for j in jobs])
        out[tenant] = {
            "submitted": float(len(jobs) + n_rejected[tenant]),
            "admitted": float(result.admitted.get(tenant, 0)),
            "rejected": float(result.rejected.get(tenant, 0)),
            "completed": float(len(jobs)),
            "p50_slowdown": percentile(slowdowns, 50),
            "p99_slowdown": percentile(slowdowns, 99),
            "p50_response_s": percentile(responses, 50),
            "p99_response_s": percentile(responses, 99),
            "mean_service_s": (
                running_total([service[j] for j in jobs]) / len(jobs) if jobs else 0.0
            ),
            "credit_floor_bytes": float(result.credit_floor.get(tenant, 0)),
        }
    return out


def service_summary(result: "StreamResult") -> dict[str, float]:
    """Flat whole-service summary (the shape experiment metrics expect)."""
    n_jobs = len(result.job_rejected)
    n_rejected = sum(result.rejected.values())
    n_rounds = len(result.scheduled)
    slowdown = result.slowdown
    done = _completed(result)
    slowdowns = sorted([slowdown[j] for j in done])
    spans = sorted(result.span)
    return {
        "jobs_submitted": float(n_jobs),
        "jobs_completed": float(len(done)),
        "jobs_rejected": float(n_rejected),
        "reject_rate": (n_rejected / n_jobs) if n_jobs else 0.0,
        "p50_slowdown": percentile(slowdowns, 50),
        "p99_slowdown": percentile(slowdowns, 99),
        "rounds": float(n_rounds),
        "p50_round_span_s": percentile(spans, 50),
        "p99_round_span_s": percentile(spans, 99),
        # An integer total, so the quotient is exact-then-rounded.
        "mean_jobs_per_round": (
            sum(result.scheduled) / n_rounds if n_rounds else 0.0
        ),
        "horizon_s": result.horizon_s,
    }


def record_service_metrics(result: "StreamResult", registry) -> None:
    """Mirror a stream run into a :class:`MetricsRegistry` so the
    standard exporters (CSV / Prometheus / JSON) cover service mode.

    Only virtual-time quantities are recorded, preserving the registry's
    byte-identical-per-seed export guarantee.
    """
    for tenant in sorted(result.admitted):
        labels = {"tenant": tenant}
        registry.counter("service_jobs_admitted", labels).inc(
            result.admitted.get(tenant, 0)
        )
        registry.counter("service_jobs_rejected", labels).inc(
            result.rejected.get(tenant, 0)
        )
        registry.gauge("service_credit_floor_bytes", labels).set(
            result.credit_floor.get(tenant, 0)
        )
    observe = registry.histogram("service_job_slowdown").observe
    slowdown = result.slowdown
    for j in _completed(result):
        observe(slowdown[j])
    observe = registry.histogram("service_round_span_seconds").observe
    for span in result.span:
        observe(span)
    observe = registry.histogram("service_round_jobs").observe
    for scheduled in result.scheduled:
        observe(float(scheduled))
