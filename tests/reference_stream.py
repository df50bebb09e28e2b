"""The stream plane before it moved onto columns, kept for differential testing.

These are the per-event record classes, the single-heap stream driver
loop and the per-tenant arrival sampler that ``repro.tasking.stream``
and ``repro.workloads.arrivals`` ran before arrivals were drawn in
vector blocks and the driver merged its sorted submits, its one pending
round and a heap of job ends into one loop; they are kept statement for
statement (the driver, its result and the schedule builder are renamed
``StreamDriverRef``, ``StreamResultRef`` and ``generate_arrivals_ref``).
``tests/test_stream_reference.py`` drives both over Hypothesis-generated
job batches and tenant rosters and compares every output by its
IEEE-754 bytes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.tasking.stream import AdmissionController
from repro.util.rng import spawn_rng
from repro.workloads.arrivals import TenantSpec

__all__ = [
    "Arrival",
    "JobRequest",
    "JobRecord",
    "RoundRecord",
    "StreamResultRef",
    "StreamDriverRef",
    "generate_arrivals_ref",
]

# Event priorities: ends free lanes/credits before same-instant submits
# see them, and the round scheduler observes both.
_END, _SUBMIT, _ROUND = 0, 1, 2
_EVENT_NAMES = {_END: "JOB_END", _SUBMIT: "SUBMIT", _ROUND: "ROUND"}


@dataclass(frozen=True)
class JobRequest:
    """One job submission: who, when, and how much memory it wants."""

    job_id: int
    tenant: str
    submit_s: float
    #: Working-set size charged against the tenant's credit line.
    demand_bytes: int


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job (admitted and finished, or rejected)."""

    job_id: int
    tenant: str
    submit_s: float
    demand_bytes: int
    rejected: bool
    start_s: float = 0.0
    finish_s: float = 0.0
    service_s: float = 0.0
    lane: int = -1

    @property
    def response_s(self) -> float:
        """Submit-to-finish latency (meaningless for rejected jobs)."""
        return self.finish_s - self.submit_s

    @property
    def slowdown(self) -> float:
        """Response time over isolated service time, floored at 1: for a
        job that starts on submission, ``finish_s - submit_s`` can round
        one ulp below ``service_s``."""
        if self.service_s <= 0.0:
            return 1.0
        return max(1.0, self.response_s / self.service_s)


@dataclass(frozen=True)
class RoundRecord:
    """One batch scheduling round."""

    index: int
    scheduled: int
    backlog: int
    #: Virtual span from the round instant to the latest finish it
    #: scheduled (0 when the round scheduled nothing).
    span_s: float


@dataclass
class StreamResultRef:
    """Everything a stream run produced, in deterministic order."""

    jobs: tuple[JobRecord, ...]
    rounds: tuple[RoundRecord, ...]
    #: ``(time_s, kind, job_id)`` triples in processing order; round
    #: events carry the round index in the third slot.
    event_log: tuple[tuple[float, str, int], ...]
    admitted: dict[str, int]
    rejected: dict[str, int]
    credit_floor: dict[str, int]
    horizon_s: float


@dataclass
class _Lane:
    free_at: float = 0.0


class StreamDriverRef:
    """Virtual-time event loop over a fixed pool of service lanes.

    ``job_runner`` maps an admitted :class:`JobRequest` to its service
    time in virtual seconds.  It is only invoked for admitted jobs, and
    exactly once per job, at schedule time — so callers can make it as
    expensive as a full simulated execution without paying for rejected
    load.
    """

    def __init__(
        self,
        jobs: Iterable[JobRequest],
        admission: AdmissionController,
        job_runner: Callable[[JobRequest], float],
        round_interval_s: float,
        lanes: int,
    ):
        self.jobs = sorted(jobs, key=lambda j: (j.submit_s, j.tenant, j.job_id))
        if round_interval_s <= 0:
            raise ValueError("round_interval_s must be positive")
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.admission = admission
        self.job_runner = job_runner
        self.round_interval_s = float(round_interval_s)
        self.n_lanes = int(lanes)

    def run(self) -> StreamResultRef:
        heap: list[tuple[float, int, int, Any]] = []
        seq = 0

        def push(time_s: float, prio: int, payload: Any) -> None:
            nonlocal seq
            heapq.heappush(heap, (time_s, prio, seq, payload))
            seq += 1

        for job in self.jobs:
            push(job.submit_s, _SUBMIT, job)
        push(0.0, _ROUND, 0)

        lanes = [_Lane() for _ in range(self.n_lanes)]
        backlog: list[JobRequest] = []  # admitted, waiting for a round
        in_flight = 0
        records: list[JobRecord] = []
        rounds: list[RoundRecord] = []
        log: list[tuple[float, str, int]] = []
        pending_submits = len(self.jobs)
        horizon = 0.0

        while heap:
            time_s, prio, _, payload = heapq.heappop(heap)
            horizon = max(horizon, time_s)
            if prio == _END:
                record: JobRecord = payload
                self.admission.release(record.tenant, record.demand_bytes)
                in_flight -= 1
                records.append(record)
                log.append((time_s, _EVENT_NAMES[_END], record.job_id))
            elif prio == _SUBMIT:
                job: JobRequest = payload
                pending_submits -= 1
                log.append((time_s, _EVENT_NAMES[_SUBMIT], job.job_id))
                if self.admission.try_admit(job.tenant, job.demand_bytes):
                    backlog.append(job)
                else:
                    records.append(
                        JobRecord(
                            job_id=job.job_id,
                            tenant=job.tenant,
                            submit_s=job.submit_s,
                            demand_bytes=job.demand_bytes,
                            rejected=True,
                        )
                    )
            else:  # _ROUND
                index: int = payload
                log.append((time_s, _EVENT_NAMES[_ROUND], index))
                scheduled = 0
                span_end = time_s
                while backlog:
                    job = backlog.pop(0)
                    lane_i = min(
                        range(self.n_lanes), key=lambda i: (lanes[i].free_at, i)
                    )
                    start = max(time_s, lanes[lane_i].free_at)
                    service = float(self.job_runner(job))
                    if service < 0:
                        raise ValueError(f"negative service time for job {job.job_id}")
                    finish = start + service
                    lanes[lane_i].free_at = finish
                    span_end = max(span_end, finish)
                    push(
                        finish,
                        _END,
                        JobRecord(
                            job_id=job.job_id,
                            tenant=job.tenant,
                            submit_s=job.submit_s,
                            demand_bytes=job.demand_bytes,
                            rejected=False,
                            start_s=start,
                            finish_s=finish,
                            service_s=service,
                            lane=lane_i,
                        ),
                    )
                    scheduled += 1
                    in_flight += 1
                rounds.append(
                    RoundRecord(
                        index=index,
                        scheduled=scheduled,
                        backlog=len(backlog),
                        span_s=span_end - time_s,
                    )
                )
                # Keep rounds firing while anything can still arrive or
                # finish; the loop drains once the system is empty.
                if pending_submits > 0 or in_flight > 0 or backlog:
                    push(time_s + self.round_interval_s, _ROUND, index + 1)

        records.sort(key=lambda r: r.job_id)
        return StreamResultRef(
            jobs=tuple(records),
            rounds=tuple(rounds),
            event_log=tuple(log),
            admitted=dict(self.admission.admitted),
            rejected=dict(self.admission.rejected),
            credit_floor=dict(self.admission.credit_floor),
            horizon_s=horizon,
        )


@dataclass(frozen=True)
class Arrival:
    """One job submission event in the materialized schedule."""

    time: float
    tenant: str
    #: Per-tenant submission index (0-based, arrival order).
    seq: int
    #: Global job id, dense in global (time, tenant, seq) order.
    job_id: int = field(default=0, compare=False)


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
        times: list[float] = []
        t = 0.0
        scale = 1.0 / spec.rate_hz
        while True:
            t += float(rng.exponential(scale))
            if t >= horizon_s:
                return times
            times.append(t)
    # burst: thinned Poisson — candidates at the on-window peak rate,
    # accepted with probability current_rate / peak_rate, which keeps the
    # long-run mean at rate_hz while concentrating mass in the on-windows.
    duty = min(max(spec.burst_duty, 1e-6), 1.0)
    factor = max(spec.burst_factor, 1.0)
    peak = spec.rate_hz * factor
    off_rate = spec.rate_hz * max(0.0, 1.0 - factor * duty) / max(1e-12, 1.0 - duty)
    times = []
    t = 0.0
    scale = 1.0 / peak
    cycle = max(spec.burst_cycle_s, 1e-9)
    while True:
        t += float(rng.exponential(scale))
        if t >= horizon_s:
            return times
        in_on = (t % cycle) < duty * cycle
        rate_now = peak if in_on else off_rate
        if float(rng.random()) < rate_now / peak:
            times.append(t)


def generate_arrivals_ref(
    tenants: Iterable[TenantSpec], horizon_s: float, seed: int
) -> tuple[Arrival, ...]:
    """Materialize every tenant's process into one global schedule.

    Each tenant draws from an independent stream keyed by its name, so
    adding or reordering tenants never perturbs another tenant's
    schedule.  The result is sorted by ``(time, tenant, seq)`` and job
    ids are dense in that order.
    """
    out: list[Arrival] = []
    for spec in tenants:
        rng = spawn_rng(seed, "arrivals", spec.name)
        for i, t in enumerate(_arrival_times(spec, horizon_s, rng)):
            out.append(Arrival(time=t, tenant=spec.name, seq=i))
    out.sort(key=lambda a: (a.time, a.tenant, a.seq))
    return tuple(
        Arrival(time=a.time, tenant=a.tenant, seq=a.seq, job_id=i)
        for i, a in enumerate(out)
    )
