"""Open-system stream driver: virtual-time event loop with batch rounds.

This is the service-mode counterpart of the closed-DAG :class:`Executor`.
Instead of running one task graph to completion, tenants *submit* jobs
(whole task graphs) over virtual time; an :class:`AdmissionController`
gates entry under overload using per-tenant DRAM-budget credits, and the
driver runs periodic **batch scheduling rounds** that assign the admitted
backlog to a fixed pool of service lanes.

Three event kinds are processed in ``(time, kind)`` order, ``JOB_END`` <
``SUBMIT`` < ``ROUND`` at equal timestamps, and in the order they arose
within a kind.  One loop merges their three sources: the submits, sorted
once up front; the single pending round, a scalar that each round
advances by ``round_interval_s``; and a heap that holds only the job
ends the rounds scheduled.  Everything runs in *virtual* time — no wall
clock, no host randomness — so a run is a pure function of its inputs
and the event log is byte-reproducible.

The driver never imports workloads or experiments: callers hand it job
columns (submit time, tenant and memory demand per job; job ``i`` is
entry ``i``) and an injected ``job_runner`` callable that maps a job id
to its service time (in practice the job's closed-DAG makespan under the
configured policy).  That keeps this module dependency-pure and leaves
the frozen executor API untouched — the executor is *used by* the
service layer's job runner, never modified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Callable, Mapping, Sequence

__all__ = [
    "AdmissionController",
    "StreamDriver",
    "StreamResult",
]

_END, _SUBMIT, _ROUND = "JOB_END", "SUBMIT", "ROUND"


@dataclass
class StreamResult:
    """Everything a stream run produced, as columns.

    Per-job columns are in job-id order.  A rejected job keeps start,
    finish and service 0.0 and lane -1.  Per-round columns are in round
    order.
    """

    submit: list[float]
    tenant: list[str]
    #: True for a job the admission controller turned away (the
    #: ``rejected`` mapping counts them per tenant).
    job_rejected: list[bool]
    start: list[float]
    finish: list[float]
    #: Isolated service time the job runner gave the job.
    service: list[float]
    lane: list[int]
    #: Jobs each round assigned to a lane.
    scheduled: list[int]
    #: Virtual span from each round instant to the latest finish it
    #: scheduled (0 when the round scheduled nothing).
    span: list[float]
    #: ``(time_s, kind, job_id)`` triples in processing order; round
    #: events carry the round index in the third slot.
    event_log: list[tuple[float, str, int]]
    admitted: dict[str, int]
    rejected: dict[str, int]
    credit_floor: dict[str, int]
    horizon_s: float

    @cached_property
    def response(self) -> list[float]:
        """Per-job submit-to-finish latency (meaningless for rejected jobs)."""
        return [f - s for f, s in zip(self.finish, self.submit)]

    @cached_property
    def slowdown(self) -> list[float]:
        """Per-job response time over isolated service time, floored at
        1: for a job that starts on submission, ``finish - submit`` can
        round one ulp below ``service``.  1.0 when service is 0."""
        return [
            max(1.0, r / v) if v > 0.0 else 1.0
            for r, v in zip(self.response, self.service)
        ]


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


class StreamDriver:
    """Virtual-time event loop over a fixed pool of service lanes.

    Job ``i`` is submitted at ``submit_s[i]`` by ``tenant[i]`` and holds
    ``demand_bytes[i]`` credits while admitted; the columns may come in
    any order.  ``job_runner`` maps an admitted job's id to its service
    time in virtual seconds.  It is only invoked for admitted jobs, and
    exactly once per job, at schedule time — so callers can make it as
    expensive as a full simulated execution without paying for rejected
    load.
    """

    def __init__(
        self,
        submit_s: Sequence[float],
        tenant: Sequence[str],
        demand_bytes: Sequence[int],
        admission: AdmissionController,
        job_runner: Callable[[int], float],
        round_interval_s: float,
        lanes: int,
    ):
        if not len(submit_s) == len(tenant) == len(demand_bytes):
            raise ValueError("job columns differ in length")
        if round_interval_s <= 0:
            raise ValueError("round_interval_s must be positive")
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.submit_s = list(submit_s)
        self.tenant = list(tenant)
        self.demand_bytes = list(demand_bytes)
        self.admission = admission
        self.job_runner = job_runner
        self.round_interval_s = float(round_interval_s)
        self.n_lanes = int(lanes)

    def run(self) -> StreamResult:
        submit, tenant, demand = self.submit_s, self.tenant, self.demand_bytes
        try_admit, release = self.admission.try_admit, self.admission.release
        job_runner = self.job_runner
        interval = self.round_interval_s
        n = len(submit)
        # Submits in (time, tenant, job id) order: job order[k] is the
        # k-th, at sub_t[k].
        order = [j for _, _, j in sorted(zip(submit, tenant, range(n)))]
        sub_t = [submit[j] for j in order]

        job_rejected = [False] * n
        start = [0.0] * n
        finish = [0.0] * n
        service = [0.0] * n
        lane = [-1] * n
        scheduled: list[int] = []
        span: list[float] = []
        log: list[tuple[float, str, int]] = []

        ends: list[tuple[float, int, int]] = []  # (finish, push order, job)
        n_pushed = 0
        lane_free = [0.0] * self.n_lanes
        backlog: list[int] = []  # admitted, waiting for a round
        in_flight = 0
        k = 0  # next submit
        round_t, round_i, round_due = 0.0, 0, True
        horizon = 0.0

        while True:
            if (
                ends
                and (k == n or ends[0][0] <= sub_t[k])
                and (not round_due or ends[0][0] <= round_t)
            ):
                time_s, _, j = heappop(ends)
                release(tenant[j], demand[j])
                in_flight -= 1
                log.append((time_s, _END, j))
            elif k < n and (not round_due or sub_t[k] <= round_t):
                time_s = sub_t[k]
                j = order[k]
                k += 1
                log.append((time_s, _SUBMIT, j))
                if try_admit(tenant[j], demand[j]):
                    backlog.append(j)
                else:
                    job_rejected[j] = True
            elif round_due:
                time_s = round_t
                log.append((time_s, _ROUND, round_i))
                span_end = time_s
                for j in backlog:
                    # Earliest-free lane, lowest index on ties.
                    free_at = min(lane_free)
                    lane_i = lane_free.index(free_at)
                    begin = free_at if free_at > time_s else time_s
                    took = float(job_runner(j))
                    if took < 0:
                        raise ValueError(f"negative service time for job {j}")
                    done = begin + took
                    lane_free[lane_i] = done
                    if done > span_end:
                        span_end = done
                    heappush(ends, (done, n_pushed, j))
                    n_pushed += 1
                    start[j], finish[j], service[j], lane[j] = begin, done, took, lane_i
                in_flight += len(backlog)
                scheduled.append(len(backlog))
                span.append(span_end - time_s)
                backlog.clear()
                # Keep rounds firing while anything can still arrive or
                # finish; the loop drains once the system is empty.
                round_i += 1
                round_t = time_s + interval
                round_due = k < n or in_flight > 0
            else:
                break
            if time_s > horizon:
                horizon = time_s

        return StreamResult(
            submit=submit,
            tenant=tenant,
            job_rejected=job_rejected,
            start=start,
            finish=finish,
            service=service,
            lane=lane,
            scheduled=scheduled,
            span=span,
            event_log=log,
            admitted=dict(self.admission.admitted),
            rejected=dict(self.admission.rejected),
            credit_floor=dict(self.admission.credit_floor),
            horizon_s=horizon,
        )
