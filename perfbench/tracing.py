"""Per-layer host-time attribution, recorded from outside the program.

:class:`Tracer` swaps timed wrappers onto the public bindings each caller
resolves at call time, and puts the originals back on :meth:`uninstall`:

===========================================  ==========================
binding                                      timer / counter
===========================================  ==========================
``repro.experiments.runner.dispatch_spec``   per-spec rows (who ran)
``repro.experiments.runner.build_cached``    ``build``
``repro.experiments.runner.make_policy``     ``hooks`` (policy proxy)
``repro.experiments.runner.Executor.run``    ``executor``
``repro.core.manager.first_use_offsets_split``  ``first_use``
``repro.core.manager.make_plan``             ``make_plan`` (inclusive)
``repro.core.placement.solve_knapsack_arrays``  ``knapsack``
``repro.experiments.service.StreamDriver``   ``stream_driver``
``repro.experiments.service.generate_arrivals``  ``arrivals``
``RunResult.from_trace``                     ``digest``
``RunSpec.cache_key``                        ``cache_key``
``ResultCache.get`` / ``ResultCache.put``    ``cache_get`` / ``cache_put``
===========================================  ==========================

Accumulators are per thread (the server runs jobs on a worker pool), so
self times stay consistent: a layer's self time is its own span minus
the child spans recorded in the same thread.  The policy proxy follows
``repro.metrics.bench._timed_policy``: a policy whose per-task hooks are
the no-op ``BasePolicy`` ones gets a shim that *inherits* those hooks,
so the executor still recognises it by hook identity and keeps it on the
static fast path.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable

import repro.core.manager as manager
import repro.core.placement as placement
import repro.experiments.runner as runner
import repro.experiments.service as service
from repro.baselines.policies import BasePolicy
from repro.core.knapsack import solver_cache_stats
from repro.experiments.cache import ResultCache
from repro.experiments.spec import RunResult, RunSpec
from repro.workloads.memo import build_cache_stats

TIMERS = (
    "build", "hooks", "first_use", "make_plan", "knapsack", "executor",
    "stream_driver", "arrivals", "digest", "cache_key", "cache_get", "cache_put",
)
COUNTS = (
    "build", "build_hits", "make_plan", "knapsack", "knapsack_hits",
    "knapsack_solves", "cache_key", "cache_get", "cache_get_hits", "cache_put",
    "stream_events", "replans", "static_fast_path", "static_off_fast_path",
)


def is_static(policy: Any) -> bool:
    """The executor's fast-path precondition: no-op per-task hooks."""
    cls = type(policy)
    return (
        cls.before_task is BasePolicy.before_task
        and cls.after_task is BasePolicy.after_task
    )


class _TimedPolicy:
    """Delegating proxy that bills every hook to the ``hooks`` timer."""

    def __init__(self, inner: Any, seconds: dict[str, float]) -> None:
        self._inner = inner
        self._seconds = seconds

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def on_run_start(self, ctx: Any) -> None:
        t0 = perf_counter()
        try:
            return self._inner.on_run_start(ctx)
        finally:
            self._seconds["hooks"] += perf_counter() - t0

    def before_task(self, task: Any, ctx: Any, now: float) -> float:
        t0 = perf_counter()
        try:
            return self._inner.before_task(task, ctx, now)
        finally:
            self._seconds["hooks"] += perf_counter() - t0

    def after_task(self, task: Any, record: Any, ctx: Any) -> float:
        t0 = perf_counter()
        try:
            return self._inner.after_task(task, record, ctx)
        finally:
            self._seconds["hooks"] += perf_counter() - t0


class _TimedStaticPolicy(BasePolicy):
    """Shim for static policies: times ``on_run_start`` and inherits the
    no-op per-task hooks, so hook identity (the fast-path test) holds."""

    def __init__(self, inner: Any, seconds: dict[str, float]) -> None:
        self._inner = inner
        self._seconds = seconds
        self.name = inner.name

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def on_run_start(self, ctx: Any) -> None:
        t0 = perf_counter()
        try:
            return self._inner.on_run_start(ctx)
        finally:
            self._seconds["hooks"] += perf_counter() - t0


class Tracer:
    """Timed wrappers over the public bindings, with per-thread totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: list[dict[str, dict[str, float]]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: One row per closed-DAG ``dispatch_spec`` call (stream sub-runs
        #: included): spec, dispatch wall, executor and hook seconds.
        self.rows: list[dict[str, Any]] = []

    # -- accumulators ---------------------------------------------------
    def _acc(self) -> dict[str, dict[str, float]]:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = {"s": dict.fromkeys(TIMERS, 0.0), "n": dict.fromkeys(COUNTS, 0)}
            self._local.acc = acc
            self._local.frames = []
            with self._lock:
                self._accs.append(acc)
        return acc

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        seconds = dict.fromkeys(TIMERS, 0.0)
        counts = dict.fromkeys(COUNTS, 0)
        with self._lock:
            for acc in self._accs:
                for k, v in acc["s"].items():
                    seconds[k] += v
                for k, v in acc["n"].items():
                    counts[k] += v
        return seconds, counts

    # -- installation ---------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _timed(self, timer: str, fn: Callable[..., Any], count: str | None = None) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            acc = self._acc()
            if count is not None:
                acc["n"][count] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc["s"][timer] += perf_counter() - t0

        return wrapper

    def install(self) -> None:
        tracer = self
        self._patch(runner, "dispatch_spec", self._dispatch(runner.dispatch_spec))
        self._patch(runner, "build_cached", self._build(runner.build_cached))
        self._patch(runner, "make_policy", self._make_policy(runner.make_policy))
        self._patch(
            manager, "first_use_offsets_split",
            self._timed("first_use", manager.first_use_offsets_split),
        )
        self._patch(manager, "make_plan", self._timed("make_plan", manager.make_plan, "make_plan"))
        self._patch(placement, "solve_knapsack_arrays", self._knapsack(placement.solve_knapsack_arrays))
        self._patch(service, "generate_arrivals", self._timed("arrivals", service.generate_arrivals))

        base_executor = runner.Executor

        class TimedExecutor(base_executor):  # type: ignore[misc, valid-type]
            def run(self, graph: Any, policy: Any) -> Any:
                return tracer._run_executor(super().run, graph, policy)

        self._patch(runner, "Executor", TimedExecutor)

        base_driver = service.StreamDriver

        class TimedStreamDriver(base_driver):  # type: ignore[misc, valid-type]
            def run(self) -> Any:
                acc = tracer._acc()
                t0 = perf_counter()
                try:
                    result = super().run()
                finally:
                    acc["s"]["stream_driver"] += perf_counter() - t0
                acc["n"]["stream_events"] += len(result.event_log)
                return result

        self._patch(service, "StreamDriver", TimedStreamDriver)

        from_trace = RunResult.__dict__["from_trace"].__func__
        self._patch(RunResult, "from_trace", classmethod(self._timed("digest", from_trace)))
        self._patch(RunSpec, "cache_key", self._timed("cache_key", RunSpec.cache_key, "cache_key"))
        self._patch(ResultCache, "get", self._cache_get(ResultCache.get))
        self._patch(ResultCache, "put", self._timed("cache_put", ResultCache.put, "cache_put"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------
    def _dispatch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def dispatch_spec(spec: RunSpec, telemetry: Any = None) -> Any:
            self._acc()  # creates this thread's frame stack
            frame = {"n_tasks": 0, "run_s": 0.0, "hooks_s": 0.0}
            self._local.frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(spec, telemetry)
            finally:
                wall = perf_counter() - t0
                self._local.frames.pop()
                if spec.stream is None:
                    with self._lock:
                        self.rows.append(
                            {"spec": spec, "dispatch_s": wall, **frame}
                        )

        return dispatch_spec

    def _run_executor(self, run: Callable[..., Any], graph: Any, policy: Any) -> Any:
        acc = self._acc()
        seconds, counts = acc["s"], acc["n"]
        if isinstance(policy, _TimedStaticPolicy):
            counts["static_fast_path" if is_static(policy) else "static_off_fast_path"] += 1
        hooks0 = seconds["hooks"]
        t0 = perf_counter()
        try:
            trace = run(graph, policy)
        finally:
            wall = perf_counter() - t0
            seconds["executor"] += wall
        stats = getattr(policy, "stats", None) or {}
        counts["replans"] += int(stats.get("replans", 0))
        if self._local.frames:
            frame = self._local.frames[-1]
            frame["n_tasks"] += len(trace.records)
            frame["run_s"] += wall
            frame["hooks_s"] += seconds["hooks"] - hooks0
        return trace

    def _build(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def build_cached(*args: Any, **kwargs: Any) -> Any:
            acc = self._acc()
            hits0 = build_cache_stats()["hits"]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc["s"]["build"] += perf_counter() - t0
                acc["n"]["build"] += 1
                acc["n"]["build_hits"] += build_cache_stats()["hits"] - hits0

        return build_cached

    def _make_policy(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def make_policy(name: str, /, **overrides: Any) -> Any:
            inner = fn(name, **overrides)
            seconds = self._acc()["s"]
            if is_static(inner):
                return _TimedStaticPolicy(inner, seconds)
            return _TimedPolicy(inner, seconds)

        return make_policy

    def _knapsack(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def solve_knapsack_arrays(*args: Any, **kwargs: Any) -> Any:
            acc = self._acc()
            before = solver_cache_stats()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc["s"]["knapsack"] += perf_counter() - t0
                after = solver_cache_stats()
                acc["n"]["knapsack"] += 1
                acc["n"]["knapsack_hits"] += after["exact_hits"] - before["exact_hits"]
                acc["n"]["knapsack_solves"] += after["solves"] - before["solves"]

        return solve_knapsack_arrays

    def _cache_get(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def get(cache: ResultCache, key: str) -> Any:
            acc = self._acc()
            t0 = perf_counter()
            try:
                payload = fn(cache, key)
            finally:
                acc["s"]["cache_get"] += perf_counter() - t0
            acc["n"]["cache_get"] += 1
            acc["n"]["cache_get_hits"] += payload is not None
            return payload

        return get
