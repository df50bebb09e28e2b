"""Job lifecycle for the digital-twin service.

A *job* is one submitted :class:`RunSpec`, identified by its content
address (:meth:`RunSpec.cache_key`).  The :class:`JobManager` owns the
dedup table, the cache probe and the bounded worker pool:

- submitting a key that is already in the table joins the existing job
  (whether still running or finished) — the simulator runs at most once
  per content address per server lifetime;
- a fresh key is probed against the on-disk :class:`ResultCache` first —
  a hit completes the job immediately without queueing anything;
- a miss is queued; at most ``workers`` jobs execute concurrently, each
  through :func:`repro.experiments.parallel.execute_capturing` — the
  same containment contract as ``run_many``, so a crashing spec becomes
  a structured failure job, never a dead server.

Every transition lands in the job's event log (consumed by the
``/v1/runs/{key}/events`` stream) and in the server's
:class:`MetricsRegistry` (consumed by ``/metrics``).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, AsyncIterator

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import execute_capturing
from repro.experiments.spec import RunResult, RunSpec
from repro.metrics.registry import MetricsRegistry

__all__ = ["Job", "JobManager", "result_payload"]

#: Terminal job states: a job reports "queued", then "running", then one
#: of these.
_TERMINAL = ("done", "failed")


def result_payload(result: RunResult) -> dict[str, Any]:
    """The API-facing JSON view of a result (cache payload + provenance
    and, for failures, the error record the cache never stores)."""
    payload = result.to_payload()
    payload["cached"] = result.cached
    if not result.ok:
        payload["error_type"] = result.error_type
        payload["error"] = result.error
    return payload


@dataclass
class Job:
    """One content-addressed run tracked by the server."""

    key: str
    spec: RunSpec
    status: str = "queued"
    result: RunResult | None = None
    #: True when the result came from the cache or dedup table rather
    #: than a simulation this job ran.
    cached: bool = False
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def summary(self, include_result: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "key": self.key,
            "label": self.spec.label(),
            "status": self.status,
            "cached": self.cached,
        }
        if include_result and self.result is not None:
            out["result"] = result_payload(self.result)
        return out


class JobManager:
    """Dedup table + cache probe + bounded worker pool.

    Must be constructed (and used) on the event loop that serves the
    requests; the only work leaving that loop is ``execute_capturing``
    itself, shipped to a thread pool.
    """

    def __init__(
        self,
        cache: ResultCache | None,
        registry: MetricsRegistry,
        workers: int = 2,
    ):
        self.cache = cache
        self.registry = registry
        self.workers = max(1, int(workers))
        self.jobs: dict[str, Job] = {}
        self._conditions: dict[str, asyncio.Condition] = {}
        self._tasks: set[asyncio.Task[None]] = set()
        self._semaphore = asyncio.Semaphore(self.workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )

        self._hits = registry.counter(
            "server_cache_hits_total",
            help="Submissions satisfied without a new simulation (result cache or dedup table)",
        )
        self._misses = registry.counter(
            "server_cache_misses_total",
            help="Submissions that queued a fresh simulation",
        )
        self._hit_ratio = registry.gauge(
            "server_cache_hit_ratio",
            help="Hits / (hits + misses) over the server lifetime",
        )
        self._queue_depth = registry.gauge(
            "server_queue_depth",
            help="Jobs admitted but not yet holding a worker slot",
        )
        self._inflight = registry.gauge(
            "server_jobs_inflight",
            help="Jobs currently executing on the worker pool",
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: RunSpec) -> tuple[Job, bool]:
        """Admit a spec; returns ``(job, created)``.

        ``created=False`` means the submission deduplicated against an
        existing job (counted as a cache hit — the simulator did not run
        again for it).
        """
        key = spec.cache_key()
        job = self.jobs.get(key)
        if job is not None:
            self._hits.inc()
            self._update_hit_ratio()
            return job, False

        job = Job(key=key, spec=spec)
        self.jobs[key] = job
        self._conditions[key] = asyncio.Condition()

        payload = self.cache.get(key) if self.cache is not None else None
        if payload is not None and payload.get("ok", True):
            job.result = RunResult.from_payload(spec, payload)
            job.cached = True
            job.status = "done"
            job.events.append(self._event(job, "done"))
            self._hits.inc()
        else:
            self._misses.inc()
            job.events.append(self._event(job, "queued"))
            task = asyncio.get_running_loop().create_task(self._run(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        self._update_hit_ratio()
        return job, True

    async def wait(self, job: Job) -> Job:
        """Block until the job reaches a terminal state."""
        cond = self._conditions[job.key]
        async with cond:
            while not job.terminal:
                await cond.wait()
        return job

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------
    async def events(self, key: str) -> AsyncIterator[dict[str, Any]]:
        """Yield the job's events from the beginning, then live until the
        job reaches a terminal state."""
        job = self.jobs[key]
        cond = self._conditions[key]
        idx = 0
        while True:
            async with cond:
                while idx >= len(job.events) and not job.terminal:
                    await cond.wait()
                batch = list(job.events[idx:])
                idx += len(batch)
                done = job.terminal and idx >= len(job.events)
            for event in batch:
                yield event
            if done:
                return

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run(self, job: Job) -> None:
        admitted = time.monotonic()
        self._queue_depth.add(1)
        async with self._semaphore:
            self._queue_depth.add(-1)
            self._observe("queue", time.monotonic() - admitted)
            await self._set_status(job, "running")
            self._inflight.add(1)
            started = time.monotonic()
            try:
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    self._pool, execute_capturing, job.spec
                )
            except BaseException as exc:  # noqa: BLE001 - pool breakage
                result = RunResult.failure(job.spec, exc)
            finally:
                self._inflight.add(-1)
            self._observe("execute", time.monotonic() - started)
            if self.cache is not None and result.ok:
                self.cache.put(job.key, result.to_payload())
            job.result = result
            outcome = "ok" if result.ok else "failed"
            self.registry.counter(
                "server_jobs_total",
                {"outcome": outcome},
                help="Simulations finished by the worker pool",
            ).inc()
            await self._set_status(job, "done" if result.ok else "failed")

    async def _set_status(self, job: Job, status: str) -> None:
        cond = self._conditions[job.key]
        async with cond:
            job.status = status
            job.events.append(self._event(job, status))
            cond.notify_all()

    @staticmethod
    def _event(job: Job, status: str) -> dict[str, Any]:
        event: dict[str, Any] = {
            "event": status,
            "key": job.key,
            "label": job.spec.label(),
        }
        if status in _TERMINAL:
            event["cached"] = job.cached
            if job.result is not None:
                event["ok"] = job.result.ok
        return event

    def _observe(self, phase: str, seconds: float) -> None:
        self.registry.histogram(
            "server_run_seconds",
            {"phase": phase},
            help="Wall-clock seconds per job, split by lifecycle phase",
        ).observe(max(0.0, seconds))

    def _update_hit_ratio(self) -> None:
        total = self._hits.value + self._misses.value
        self._hit_ratio.set(self._hits.value / total if total else 0.0)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "jobs": len(self.jobs),
            "by_status": by_status,
            "hits": int(self._hits.value),
            "misses": int(self._misses.value),
        }

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
