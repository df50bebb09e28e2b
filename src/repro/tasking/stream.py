"""Open-system stream driver: virtual-time event loop with batch rounds.

This is the service-mode counterpart of the closed-DAG :class:`Executor`.
Instead of running one task graph to completion, tenants *submit* jobs
(whole task graphs) over virtual time; an :class:`AdmissionController`
gates entry under overload using per-tenant DRAM-budget credits, and the
driver runs periodic **batch scheduling rounds** that assign the admitted
backlog to a fixed pool of service lanes.

The design follows the EventManager pattern: a single heap of
``(time, priority, seq)``-ordered events (``JOB_END`` < ``SUBMIT`` <
``ROUND`` at equal timestamps), popped one at a time, each handler
pushing follow-on events.  Everything runs in *virtual* time — no wall
clock, no host randomness — so a run is a pure function of its inputs
and the event log is byte-reproducible.

The driver never imports workloads or experiments: callers hand it
:class:`JobRequest` records (submit time + memory demand) and an injected
``job_runner`` callable that maps a request to its service time (in
practice the job's closed-DAG makespan under the configured policy).
That keeps this module dependency-pure and leaves the frozen executor
API untouched — the executor is *used by* the service layer's job
runner, never modified.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "JobRequest",
    "JobRecord",
    "RoundRecord",
    "AdmissionController",
    "StreamDriver",
    "StreamResult",
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
class StreamResult:
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


class AdmissionController:
    """Per-tenant DRAM-budget credit accounting.

    Each tenant has a byte-denominated credit line.  Admitting a job
    holds credits equal to its memory demand for the job's lifetime;
    finishing releases them.  A submit that would overdraw the line is
    rejected outright — under overload this sheds load instead of
    growing the backlog without bound.  ``credit_floor`` tracks the
    minimum available balance ever observed per tenant, which the test
    suite uses to prove balances never go negative.
    """

    def __init__(self, credits: Mapping[str, int]):
        self._limit = {t: int(v) for t, v in credits.items()}
        self._avail = dict(self._limit)
        self.admitted: dict[str, int] = {t: 0 for t in self._limit}
        self.rejected: dict[str, int] = {t: 0 for t in self._limit}
        self.credit_floor: dict[str, int] = dict(self._avail)

    def try_admit(self, tenant: str, demand_bytes: int) -> bool:
        if tenant not in self._avail:
            raise KeyError(f"unknown tenant {tenant!r}")
        if demand_bytes > self._avail[tenant]:
            self.rejected[tenant] += 1
            return False
        self._avail[tenant] -= demand_bytes
        self.admitted[tenant] += 1
        if self._avail[tenant] < self.credit_floor[tenant]:
            self.credit_floor[tenant] = self._avail[tenant]
        return True

    def release(self, tenant: str, demand_bytes: int) -> None:
        self._avail[tenant] += demand_bytes
        if self._avail[tenant] > self._limit[tenant]:
            raise RuntimeError(
                f"credit overflow for {tenant!r}: released more than held"
            )


@dataclass
class _Lane:
    free_at: float = 0.0


class StreamDriver:
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

    def run(self) -> StreamResult:
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
        return StreamResult(
            jobs=tuple(records),
            rounds=tuple(rounds),
            event_log=tuple(log),
            admitted=dict(self.admission.admitted),
            rejected=dict(self.admission.rejected),
            credit_floor=dict(self.admission.credit_floor),
            horizon_s=horizon,
        )
