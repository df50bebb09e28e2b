"""The digital-twin service: HTTP API over the cached simulator.

:class:`DigitalTwinServer` wires the routes onto
:class:`~repro.server.http.AsyncHttpServer`, backed by one
:class:`~repro.server.jobs.JobManager` (dedup + cache + worker pool) and
one live :class:`~repro.metrics.MetricsRegistry`:

========  =======================  ============================================
method    path                     purpose
========  =======================  ============================================
GET       /healthz                 liveness + version + job/cache stats
POST      /v1/runs                 submit a RunSpec (dedup + cache probe)
GET       /v1/runs                 list tracked jobs
GET       /v1/runs/{key}           one job's status/result
GET       /v1/runs/{key}/events    server-sent-events progress stream
POST      /v1/whatif               base + dotted-path overrides -> delta table
GET       /metrics                 Prometheus exposition of the live registry
========  =======================  ============================================

``POST /v1/runs`` waits for the result by default (the curl-friendly
mode); ``?wait=0`` (or ``"wait": false`` in the body) returns ``202`` as
soon as the job is admitted, to be polled or streamed.  The what-if
endpoint is the HTTP face of the :meth:`RunSpec.with_overrides` /
:meth:`RunSpec.diff` plane: it resolves the base spec (inline document,
job key, or cached payload), applies the overrides, runs both sides
through the same dedup/cache path as every other run, and answers with
both summaries, a per-metric delta table and the canonical spec diff.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, AsyncIterator

import repro
from repro.core.knapsack import export_cache_metrics
from repro.experiments.cache import ResultCache, resolve_cache
from repro.experiments.spec import RunResult, RunSpec
from repro.metrics.export import to_prometheus
from repro.metrics.registry import MetricsRegistry
from repro.server.http import (
    AsyncHttpServer,
    EventStream,
    Handler,
    HttpError,
    Request,
    Response,
    json_response,
)
from repro.server.jobs import Job, JobManager, result_payload

__all__ = ["ServerConfig", "DigitalTwinServer", "serve"]

#: Scalar result fields compared by the what-if delta table (energy
#: components ride along from ``RunResult.energy``).
DELTA_FIELDS = (
    "makespan",
    "migrations",
    "migrated_mib",
    "overlap",
    "overhead_fraction",
)

#: Prometheus exposition content type (text format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for one server instance."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (reported by ``start()``).
    port: int = 8077
    #: Worker-pool width: how many simulations may execute concurrently.
    workers: int = 2
    #: Result cache: an instance, ``None``/``True`` for the process
    #: default (``$REPRO_CACHE_DIR``), ``False`` to disable caching.
    cache: ResultCache | None | bool = None


class DigitalTwinServer:
    """The long-lived service over the cached simulator."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.registry = MetricsRegistry()
        self.cache = resolve_cache(self.config.cache)
        self.jobs = JobManager(self.cache, self.registry, workers=self.config.workers)
        self.http = AsyncHttpServer(self.config.host, self.config.port)
        self._route("GET", "/healthz", self._healthz)
        self._route("POST", "/v1/runs", self._post_run)
        self._route("GET", "/v1/runs", self._list_runs)
        self._route("GET", "/v1/runs/{key}", self._get_run)
        self._route("GET", "/v1/runs/{key}/events", self._run_events)
        self._route("POST", "/v1/whatif", self._whatif)
        self._route("GET", "/metrics", self._metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and accept; returns ``(host, port)`` with the real port
        when the config asked for an ephemeral one."""
        return await self.http.start()

    async def serve_forever(self) -> None:
        await self.http.serve_forever()

    async def close(self) -> None:
        await self.http.close()
        self.jobs.close()

    @property
    def url(self) -> str:
        return f"http://{self.http.host}:{self.http.port}"

    # ------------------------------------------------------------------
    # Request instrumentation
    # ------------------------------------------------------------------
    def _route(self, method: str, pattern: str, handler: Handler) -> None:
        self.http.route(method, pattern, self._instrumented(pattern, handler))

    def _instrumented(self, route: str, handler: Handler) -> Handler:
        async def wrapped(request: Request) -> Response | EventStream:
            started = time.monotonic()
            status = 500
            try:
                result = await handler(request)
                status = 200 if isinstance(result, EventStream) else result.status
                return result
            except HttpError as exc:
                status = exc.status
                raise
            finally:
                self.registry.counter(
                    "server_requests_total",
                    {"method": request.method, "route": route, "status": str(status)},
                    help="HTTP requests served, by route and status",
                ).inc()
                self.registry.histogram(
                    "server_request_seconds",
                    {"route": route},
                    help="Wall-clock seconds spent answering each route",
                ).observe(time.monotonic() - started)

        return wrapped

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _healthz(self, request: Request) -> Response:
        payload = {
            "status": "ok",
            "version": repro.__version__,
            "jobs": self.jobs.stats(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }
        return json_response(payload)

    async def _post_run(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "run submission must be a JSON object")
        spec_doc = body.get("spec", body)
        wait = body.get("wait")
        if wait is None:
            # Default is the curl-friendly synchronous mode; ?wait=0 opts
            # into fire-and-poll.
            wait = request.flag("wait") if "wait" in request.query else True
        spec = self._parse_spec(spec_doc)
        job, created = self.jobs.submit(spec)
        if wait:
            await self.jobs.wait(job)
        payload = job.summary()
        payload["created"] = created
        # Dedup against an earlier job is a cache hit from the caller's
        # point of view: this submission triggered no new simulation.
        if not created and job.terminal:
            payload["cached"] = True
            if "result" in payload:
                payload["result"]["cached"] = True
        status = 200 if job.terminal else 202
        return json_response(payload, status)

    async def _list_runs(self, request: Request) -> Response:
        jobs = [job.summary(include_result=False) for job in self.jobs.jobs.values()]
        jobs.sort(key=lambda j: j["key"])
        return json_response({"jobs": jobs, "stats": self.jobs.stats()})

    def _job_or_404(self, request: Request) -> Job:
        key = request.params["key"]
        job = self.jobs.jobs.get(key)
        if job is None:
            raise HttpError(404, f"no such run: {key}")
        return job

    async def _get_run(self, request: Request) -> Response:
        job = self._job_or_404(request)
        if request.flag("wait"):
            await self.jobs.wait(job)
        return json_response(job.summary())

    async def _run_events(self, request: Request) -> EventStream:
        job = self._job_or_404(request)
        return EventStream(self._sse(job))

    async def _sse(self, job: Job) -> AsyncIterator[bytes]:
        async for event in self.jobs.events(job.key):
            chunk = (
                f"event: {event['event']}\n"
                f"data: {json.dumps(event, sort_keys=True)}\n\n"
            )
            yield chunk.encode("utf-8")

    async def _whatif(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "whatif request must be a JSON object")
        overrides = body.get("overrides")
        if not isinstance(overrides, dict) or not overrides:
            raise HttpError(
                400,
                "whatif needs a non-empty 'overrides' object of dotted "
                'spec paths (e.g. {"memory.dram_bytes": 268435456})',
            )
        base_spec = self._resolve_base(body)
        try:
            variant_spec = base_spec.with_overrides(**overrides)
        except (KeyError, TypeError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise HttpError(400, f"bad override: {message}") from None

        base_job, _ = self.jobs.submit(base_spec)
        variant_job, _ = self.jobs.submit(variant_spec)
        await asyncio.gather(self.jobs.wait(base_job), self.jobs.wait(variant_job))
        base, variant = base_job.result, variant_job.result
        assert base is not None and variant is not None
        if not base.ok or not variant.ok:
            broken = base if not base.ok else variant
            raise HttpError(
                500,
                f"whatif run failed for {broken.spec.label()}: "
                f"{broken.error_type}: {broken.error}",
            )
        return json_response(
            {
                "base": result_payload(base),
                "variant": result_payload(variant),
                "spec_diff": _jsonable_diff(base_spec.diff(variant_spec)),
                "delta": _delta_table(base, variant),
            }
        )

    async def _metrics(self, request: Request) -> Response:
        # Scrape-time refresh: the knapsack cache counters are process
        # globals (see export_cache_metrics), so they are pulled into the
        # registry here rather than pushed from the planning hot path.
        export_cache_metrics(self.registry)
        text = to_prometheus(self.registry)
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_spec(doc: Any) -> RunSpec:
        if not isinstance(doc, dict) or "workload" not in doc:
            raise HttpError(
                400,
                "spec must be a RunSpec document (an object with at least "
                "'workload'); wrap it as {\"spec\": {...}} or post it bare",
            )
        doc = {k: v for k, v in doc.items() if k not in ("wait",)}
        try:
            return RunSpec.from_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise HttpError(400, f"bad spec: {message}") from None

    def _resolve_base(self, body: dict[str, Any]) -> RunSpec:
        base = body.get("base")
        if isinstance(base, dict):
            return self._parse_spec(base)
        key = base if isinstance(base, str) else body.get("base_key")
        if not isinstance(key, str) or not key:
            raise HttpError(
                400,
                "whatif needs a base: an inline spec document under 'base', "
                "or a run key (from POST /v1/runs) under 'base'/'base_key'",
            )
        job = self.jobs.jobs.get(key)
        if job is not None:
            return job.spec
        payload = self.cache.get(key) if self.cache is not None else None
        if payload is not None and isinstance(payload.get("spec"), dict):
            return self._parse_spec(payload["spec"])
        raise HttpError(404, f"no such base run: {key} (not in job table or cache)")


def _delta_table(base: RunResult, variant: RunResult) -> dict[str, dict[str, Any]]:
    """Per-metric ``{base, variant, delta, ratio}`` rows, scalar result
    fields first, then every energy component present on either side."""
    rows: dict[str, dict[str, Any]] = {}
    for name in DELTA_FIELDS:
        rows[name] = _delta_row(getattr(base, name), getattr(variant, name))
    for key in sorted(set(base.energy) | set(variant.energy)):
        rows[f"energy.{key}"] = _delta_row(
            base.energy.get(key, 0.0), variant.energy.get(key, 0.0)
        )
    return rows


def _delta_row(a: float, b: float) -> dict[str, Any]:
    return {
        "base": a,
        "variant": b,
        "delta": b - a,
        "ratio": (b / a) if a else None,
    }


def _jsonable_diff(diff: dict[str, tuple[Any, Any]]) -> dict[str, list[Any]]:
    """Spec diffs carry (base, variant) tuples; JSON wants lists."""
    return {path: [a, b] for path, (a, b) in diff.items()}


async def serve(config: ServerConfig | None = None) -> None:
    """Boot a server and run it until cancelled (the CLI entry point)."""
    server = DigitalTwinServer(config)
    host, port = await server.start()
    print(f"repro digital-twin API listening on http://{host}:{port}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
