"""One benchmark workload, in a process of its own (started by ``run.py``).

The worker sets its workload up, prints ``READY`` (the parent times
process start to that line as ``setup_s``), then measures one pass for
``--seconds`` and prints one JSON line with what it saw.  With
``--trace 1`` it then sets the workload up again, installs the
:class:`tracing.Tracer` wrappers and replays exactly the same operations,
so the per-layer figures and the traced outputs can be compared with the
untraced pass.  ``--setup-only`` stops after ``READY``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import http.client
import itertools
import json
import random
import re
import resource
import shutil
import statistics
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

import specs as S
from tracing import Tracer
from repro.core.knapsack import clear_solver_cache
from repro.experiments import runner
from repro.experiments.cache import ResultCache
from repro.experiments.spec import RunSpec
from repro.server import DigitalTwinServer, ServerConfig
from repro.tasking import dataobj, task
from repro.workloads.memo import clear_build_cache

PINNED: dict[str, str] = json.loads(
    (Path(__file__).resolve().parent / "pinned.json").read_text(encoding="utf-8")
)["digests"]


def fresh_ids() -> None:
    """Rewind the object and task id counters to where a new process
    starts them, as the golden tests do (``reset_process_caches``).

    Absolute object ids steer the iteration order of uid sets, and with
    it the results of some specs (see ``NOTES.md``), so every graph the
    benchmark checks is built from this state, as ``pin.py`` builds it.
    """
    dataobj._uid_counter = itertools.count(1)
    task._tid_counter = itertools.count(1)


def cold_start() -> None:
    """Drop interned graphs and solver state, then rewind the ids: a
    set-up in a used process (the traced pass) starts as a new one."""
    clear_build_cache()
    clear_solver_cache()
    fresh_ids()


#: Seconds the speed probe takes on the reference machine: figures are
#: scaled to a machine that runs the probe in exactly this time.
PROBE_REF_S = 2.0e-3
#: Minimum spacing between speed probes (seconds of measured work).
PROBE_EVERY_S = 0.05


class SpeedProbe:
    """Fixed interpreter work timed between operations.

    A shared host runs the same loop up to ~2x slower from one moment to
    the next, and the simulator slows with it.  The mean probe time over
    a pass estimates how slow the machine ran during it, so figures can
    be reported at the reference speed (see ``NOTES.md``)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0

    def maybe(self) -> None:
        now = perf_counter()
        if now - self._last < PROBE_EVERY_S:
            return
        acc = 0.0
        table: dict[int, float] = {}
        for i in range(20_000):
            table[i & 1023] = acc
            acc += i * 0.5
        self._last = perf_counter()
        self.samples.append(self._last - now)

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / PROBE_REF_S if self.samples else 1.0


def check(spec: RunSpec, payload: dict[str, Any]) -> tuple[bool, str]:
    """``(matches the pinned digest, digest)`` for one result payload."""
    digest = S.payload_digest(payload)
    pinned = PINNED.get(S.spec_id(spec))
    if pinned != digest:
        print(f"[check] {spec.label()} {S.spec_id(spec)}: digest {digest}, pinned {pinned}",
              file=sys.stderr)
    return pinned == digest, digest


def op(kind: str, latency_s: float, ok: bool, output: str = "", spec: RunSpec | None = None,
       summary: dict[str, Any] | None = None) -> dict[str, Any]:
    """One measured operation: a ``dispatch_spec`` call or an HTTP request.

    ``tasks``/``events`` are set only where the operation *simulated*
    the closed DAG or stream it reports."""
    rec = {"kind": kind, "latency_s": latency_s, "ok": ok, "output": output,
           "policy": None, "tasks": 0, "events": 0}
    if spec is not None and summary is not None:
        rec["policy"] = spec.policy
        if spec.stream is None:
            rec["tasks"] = int(summary.get("n_tasks", 0))
        else:
            rec["events"] = int(summary.get("n_events", 0))
    return rec


def failure(kind: str, latency_s: float, exc: BaseException) -> dict[str, Any]:
    print(f"[{kind}] {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exc(limit=3, file=sys.stderr)
    return op(kind, latency_s, False)


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
class SweepCold:
    """Cold ``dispatch_spec`` rounds in this process, no result cache."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.setup_checks = self.setup_failures = 0
        self.extra_client_s = 0.0

    def setup(self) -> None:
        cold_start()

    def teardown(self) -> None:
        pass

    def run_pass(self, seconds: float | None = None, replay: int | None = None) -> tuple[list[dict[str, Any]], int, float]:
        """Whole rounds until ``seconds`` have passed (or ``replay`` rounds)."""
        rng = random.Random(self.seed)
        probe = SpeedProbe()
        ops: list[dict[str, Any]] = []
        t0 = perf_counter()
        rounds = 0
        while (perf_counter() - t0 < seconds) if replay is None else (rounds < replay):
            # Each round starts cold: no interned graphs, no solver state.
            cold_start()
            for spec in S.sweep_round(rng):
                # Each spec starts from an empty collector, so the cyclic
                # collections it triggers depend on its own allocations,
                # not on where earlier specs left the generation counts.
                gc.collect()
                probe.maybe()
                ops.append(self._dispatch(spec))
            rounds += 1
        return ops, rounds, probe.slowdown()

    @staticmethod
    def _dispatch(spec: RunSpec) -> dict[str, Any]:
        fresh_ids()
        t0 = perf_counter()
        try:
            payload = runner.dispatch_spec(spec).result.to_payload()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return failure("dispatch", perf_counter() - t0, exc)
        latency = perf_counter() - t0
        ok, digest = check(spec, payload)
        return op("dispatch", latency, ok, digest, spec, payload["summary"])

    def scrape(self) -> dict[tuple[str, tuple], float]:
        return {}


# ----------------------------------------------------------------------
# The in-process digital twin and its one-connection client
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r'^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """``{(name, sorted label pairs): value}`` from exposition text."""
    out = {}
    for line in text.splitlines():
        m = _SAMPLE.match(line)
        if m and not line.startswith("#"):
            labels = tuple(sorted(_LABEL.findall(m.group(2) or "")))
            out[(m.group(1), labels)] = float(m.group(3))
    return out


class Twin:
    """A ``DigitalTwinServer`` on its own event-loop thread, over a binary
    ``ResultCache``; requests go over a fresh socket each (the server
    answers ``Connection: close``), one at a time."""

    def __init__(self, cache_dir: Path) -> None:
        self.server = DigitalTwinServer(
            ServerConfig(port=0, workers=2, cache=ResultCache(cache_dir, binary=True))
        )
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="twin-server")
        self.thread.start()
        if not started.wait(60):
            raise RuntimeError("twin server did not start")

    def request(self, method: str, path: str, doc: Any = None) -> tuple[int, bytes, float]:
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        t0 = perf_counter()
        conn = http.client.HTTPConnection(self.server.http.host, self.server.http.port, timeout=120)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return resp.status, data, perf_counter() - t0

    def scrape(self) -> tuple[dict[tuple[str, tuple], float], float]:
        status, data, latency = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_prometheus(data.decode("utf-8")), latency

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(60)
        self.loop.close()


class _TwinWorkload:
    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.cache_dir = scratch / f"{type(self).__name__.lower()}-cache"
        self.setup_checks = self.setup_failures = 0
        self.twin: Twin | None = None
        #: Client seconds of requests outside the measured loop that the
        #: server's histograms still see (the pre-pass ``/metrics`` scrape).
        self.extra_client_s = 0.0

    def teardown(self) -> None:
        if self.twin is not None:
            self.twin.close()
            self.twin = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def scrape(self) -> dict[tuple[str, tuple], float]:
        assert self.twin is not None
        metrics, latency = self.twin.scrape()
        self.extra_client_s += latency
        return metrics

    def _post_run(self, spec: RunSpec, kind: str) -> dict[str, Any]:
        """``POST /v1/runs`` (waits for the result) and check the payload."""
        assert self.twin is not None
        t0 = perf_counter()
        try:
            status, data, latency = self.twin.request("POST", "/v1/runs", {"spec": spec.to_dict()})
            body = json.loads(data)
            if status != 200 or body.get("status") != "done":
                raise RuntimeError(f"POST /v1/runs answered {status}: {data[:200]!r}")
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return failure(kind, perf_counter() - t0, exc)
        payload = body["result"]
        ok, digest = check(spec, payload)
        simulated = kind == "fresh"
        return op(kind, latency, ok, digest, spec if simulated else None,
                  payload["summary"] if simulated else None)


# ----------------------------------------------------------------------
# twin-whatif
# ----------------------------------------------------------------------
class TwinWhatif(_TwinWorkload):
    """Closed-loop ``POST /v1/whatif`` sweeps of DRAM size and NVM
    bandwidth over fixed bases that setup has already simulated."""

    def setup(self) -> None:
        cold_start()
        self.twin = Twin(self.cache_dir)
        for base in S.WHATIF_BASES:
            self.setup_checks += 1
            self.setup_failures += not self._post_run(base, "base")["ok"]

    def run_pass(self, seconds: float | None = None, replay: int | None = None) -> tuple[list[dict[str, Any]], int, float]:
        requests = S.whatif_requests(random.Random(self.seed))
        probe = SpeedProbe()
        ops: list[dict[str, Any]] = []
        t0 = perf_counter()
        while (perf_counter() - t0 < seconds) if replay is None else (len(ops) < replay):
            probe.maybe()
            index, overrides = next(requests)
            base = S.WHATIF_BASES[index]
            ops.append(self._whatif(base, overrides, base.with_overrides(**overrides)))
        return ops, len(ops), probe.slowdown()

    def _whatif(self, base: RunSpec, overrides: dict[str, Any], variant: RunSpec) -> dict[str, Any]:
        assert self.twin is not None
        t0 = perf_counter()
        try:
            status, data, latency = self.twin.request(
                "POST", "/v1/whatif", {"base": base.to_dict(), "overrides": overrides}
            )
            body = json.loads(data)
            if status != 200:
                raise RuntimeError(f"POST /v1/whatif answered {status}: {data[:200]!r}")
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return failure("whatif", perf_counter() - t0, exc)
        base_ok, base_digest = check(base, body["base"])
        variant_ok, variant_digest = check(variant, body["variant"])
        delta = body["delta"]["makespan"]
        delta_ok = delta["delta"] == body["variant"]["makespan"] - body["base"]["makespan"]
        return op("whatif", latency, base_ok and variant_ok and delta_ok,
                  f"{base_digest}:{variant_digest}", variant, body["variant"]["summary"])


# ----------------------------------------------------------------------
# twin-hits
# ----------------------------------------------------------------------
#: Position in each 20-request cycle -> request kind; the rest are posts
#: of a pre-filled spec not sent yet (disk hit), else a repeat (dedup).
HITS_CYCLE = {0: "fresh", 5: "get", 10: "metrics", 15: "get"}


class TwinHits(_TwinWorkload):
    """Closed-loop cache hits over a pre-filled binary ``ResultCache``,
    with ~1 fresh tiny spec per 20 requests writing beside the reads."""

    def setup(self) -> None:
        cold_start()
        self.prefill, self.fresh = S.hits_split(random.Random(self.seed))
        cache = ResultCache(self.cache_dir, binary=True)
        for spec in self.prefill:
            payload = runner.dispatch_spec(spec).result.to_payload()
            self.setup_checks += 1
            self.setup_failures += not check(spec, payload)[0]
            cache.put(spec.cache_key(), payload)
        self.twin = Twin(self.cache_dir)

    def run_pass(self, seconds: float | None = None, replay: int | None = None) -> tuple[list[dict[str, Any]], int, float]:
        rng = random.Random(self.seed + 1)
        unsent = list(self.prefill)
        fresh = iter(self.fresh)
        sent: list[RunSpec] = []
        probe = SpeedProbe()
        ops: list[dict[str, Any]] = []
        t0 = perf_counter()
        while (perf_counter() - t0 < seconds) if replay is None else (len(ops) < replay):
            probe.maybe()
            kind = HITS_CYCLE.get(len(ops) % 20, "post")
            if kind == "fresh":
                spec = next(fresh, None)
                if spec is None:  # pool exhausted: fall back to a repeat
                    kind = "post"
                else:
                    ops.append(self._post_run(spec, "fresh"))
                    sent.append(spec)
                    continue
            if kind == "get" and sent:
                ops.append(self._get_run(rng.choice(sent)))
            elif kind == "metrics":
                ops.append(self._get_metrics())
            elif unsent:
                spec = unsent.pop()
                ops.append(self._post_run(spec, "first"))
                sent.append(spec)
            else:
                ops.append(self._post_run(rng.choice(sent), "repeat"))
        return ops, len(ops), probe.slowdown()

    def _get_run(self, spec: RunSpec) -> dict[str, Any]:
        assert self.twin is not None
        t0 = perf_counter()
        try:
            status, data, latency = self.twin.request("GET", f"/v1/runs/{spec.cache_key()}")
            if status != 200:
                raise RuntimeError(f"GET /v1/runs/{{key}} answered {status}")
            payload = json.loads(data)["result"]
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return failure("get", perf_counter() - t0, exc)
        ok, digest = check(spec, payload)
        return op("get", latency, ok, digest)

    def _get_metrics(self) -> dict[str, Any]:
        assert self.twin is not None
        t0 = perf_counter()
        try:
            status, data, latency = self.twin.request("GET", "/metrics")
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return failure("metrics", perf_counter() - t0, exc)
        ok = status == 200 and b"repro_server_request_seconds_count" in data
        return op("metrics", latency, ok, "metrics")


WORKLOADS = {"sweep-cold": SweepCold, "twin-whatif": TwinWhatif, "twin-hits": TwinHits}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _rate(ops: list[dict[str, Any]], field: str, policy: str | None = None) -> float:
    chosen = [o for o in ops if o[field] and (policy is None or o["policy"] == policy)]
    seconds = sum(o["latency_s"] for o in chosen)
    return sum(o[field] for o in chosen) / seconds if seconds else 0.0


def end_to_end(ops: list[dict[str, Any]], slowdown: float) -> dict[str, float]:
    """The untraced pass's user-facing figures (see ``NOTES.md``), at the
    reference machine speed: host seconds are divided by ``slowdown``.
    Rates are over the operations' own seconds, so the harness's pauses
    between them (garbage collection, speed probes) are not counted."""
    latencies = [o["latency_s"] / slowdown for o in ops]
    n = len(latencies)
    out = {
        "sim_tasks_per_s": _rate(ops, "tasks") * slowdown,
        "managed_tasks_per_s": _rate(ops, "tasks", S.MANAGED) * slowdown,
        "unmanaged_tasks_per_s": _rate(ops, "tasks", S.UNMANAGED) * slowdown,
        "stream_events_per_s": _rate(ops, "events") * slowdown,
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_per_s": n / sum(latencies),
        "req_samples": n,
        "failed_ratio": sum(not o["ok"] for o in ops) / n,
        "host_slowdown": slowdown,
    }
    # A percentile is reported only with at least ten samples beyond it.
    if n >= 100:
        out["req_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1e3
    if n >= 1000:
        out["req_p99_ms"] = statistics.quantiles(latencies, n=100)[98] * 1e3
    return out


def _delta(before: dict, after: dict, name: str, **match: str) -> float:
    """Change of a scraped counter or histogram sum over the pass."""
    total = 0.0
    for (metric, labels), value in after.items():
        if metric == name and all((k, v) in labels for k, v in match.items()):
            total += value - before.get((metric, labels), 0.0)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced: list[dict[str, Any]], before: dict, after: dict,
              extra_client_s: float) -> dict[str, float]:
    """Per-layer figures from the traced pass (names follow the modules)."""
    sec, cnt = tracer.totals()
    rows = tracer.rows

    def rows_where(policy: str | None = None, lo: int = 0, hi: int = 1 << 62, workload: str | None = None):
        return [r for r in rows
                if (policy is None or r["spec"].policy == policy)
                and (workload is None or r["spec"].workload == workload)
                and lo <= r["n_tasks"] < hi]

    def us_per_task(chosen: list[dict[str, Any]], field: str) -> float:
        if field == "executor_self_s":
            spent = sum(r["run_s"] - r["hooks_s"] for r in chosen)
        else:
            spent = sum(r[field] for r in chosen)
        return _ratio(spent, sum(r["n_tasks"] for r in chosen)) * 1e6

    def share(chosen: list[dict[str, Any]]) -> float:
        return _ratio(sum(r["hooks_s"] for r in chosen), sum(r["dispatch_s"] for r in chosen))

    rung_1k = rows_where(lo=500, hi=2000, workload="heat")
    rung_3k = rows_where(lo=2000, hi=6000, workload="heat")
    managed_1k = [r for r in rung_1k if r["spec"].policy == S.MANAGED]
    managed_3k = [r for r in rung_3k if r["spec"].policy == S.MANAGED]
    server_s = _delta(before, after, "repro_server_request_seconds_sum")
    client_s = sum(o["latency_s"] for o in traced) + extra_client_s
    run_routes = (_delta(before, after, "repro_server_request_seconds_sum", route="/v1/runs")
                  + _delta(before, after, "repro_server_request_seconds_sum", route="/v1/runs/{key}"))
    hits = _delta(before, after, "repro_server_cache_hits_total")
    misses = _delta(before, after, "repro_server_cache_misses_total")
    return {
        "workloads.build_s": sec["build"],
        "workloads.build_calls": cnt["build"],
        "workloads.build_hit_ratio": _ratio(cnt["build_hits"], cnt["build"]),
        "workloads.arrivals.generate_s": sec["arrivals"],
        "core.manager.hooks_self_s": sec["hooks"] - sec["first_use"] - sec["make_plan"],
        "core.manager.replans": cnt["replans"],
        "core.lookahead.first_use_s": sec["first_use"],
        "core.placement.make_plan_s": sec["make_plan"],
        "core.placement.make_plan_calls": cnt["make_plan"],
        "core.placement.weigh_s": sec["make_plan"] - sec["knapsack"],
        "core.knapsack.solve_s": sec["knapsack"],
        "core.knapsack.solve_calls": cnt["knapsack"],
        "core.knapsack.cache_hit_ratio": _ratio(
            cnt["knapsack_hits"], cnt["knapsack_hits"] + cnt["knapsack_solves"]),
        "core.us_per_task_1k": us_per_task(managed_1k, "hooks_s"),
        "core.us_per_task_3k": us_per_task(managed_3k, "hooks_s"),
        "core.managed_share": share(rows_where(S.MANAGED)),
        "core.unmanaged_share": share(rows_where(S.UNMANAGED)),
        "tasking.executor.self_s": sec["executor"] - sec["hooks"],
        "tasking.executor.us_per_task_1k": us_per_task(rung_1k, "executor_self_s"),
        "tasking.executor.us_per_task_3k": us_per_task(rung_3k, "executor_self_s"),
        "tasking.executor.static_fast_path_runs": cnt["static_fast_path"],
        "tasking.stream.driver_s": sec["stream_driver"],
        "tasking.stream.events": cnt["stream_events"],
        "experiments.spec.digest_s": sec["digest"],
        "experiments.spec.cache_key_s": sec["cache_key"],
        "experiments.spec.cache_key_calls": cnt["cache_key"],
        "experiments.cache.get_s": sec["cache_get"],
        "experiments.cache.put_s": sec["cache_put"],
        "experiments.cache.hit_ratio": _ratio(cnt["cache_get_hits"], cnt["cache_get"]),
        "server.jobs.queue_wait_s": _delta(before, after, "repro_server_run_seconds_sum", phase="queue"),
        "server.jobs.execute_s": _delta(before, after, "repro_server_run_seconds_sum", phase="execute"),
        "server.jobs.dedup_hit_ratio": _ratio(hits, hits + misses),
        "server.http.route_s.runs": run_routes,
        "server.http.route_s.whatif": _delta(before, after, "repro_server_request_seconds_sum", route="/v1/whatif"),
        "server.http.route_s.metrics": _delta(before, after, "repro_server_request_seconds_sum", route="/metrics"),
        "server.client_overhead_s": client_s - server_s if server_s else 0.0,
        "core_tasking.op_share": _ratio(sec["executor"] + sec["stream_driver"], client_s),
    }


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        workload.teardown()
        return 0

    t0 = perf_counter()
    ops, replay, slowdown = workload.run_pass(seconds=args.seconds)
    wall_s = perf_counter() - t0
    workload.teardown()
    result: dict[str, Any] = {
        "attempted": len(ops) + workload.setup_checks,
        "failed": sum(not o["ok"] for o in ops) + workload.setup_failures,
        "end_to_end": end_to_end(ops, slowdown),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        traced_workload = WORKLOADS[args.workload](args.seed, args.scratch)
        traced_workload.setup()
        tracer = Tracer()
        tracer.install()
        try:
            before = traced_workload.scrape()
            t0 = perf_counter()
            traced, _, traced_slowdown = traced_workload.run_pass(replay=replay)
            traced_wall_s = perf_counter() - t0
            after = traced_workload.scrape()
        finally:
            tracer.uninstall()
            traced_workload.teardown()
        # Traced outputs must be byte-identical to the untraced ones.
        mismatched = len(traced) != len(ops) or any(
            a["output"] != b["output"] for a, b in zip(ops, traced))
        fell_off_fast_path = tracer.totals()[1]["static_off_fast_path"]
        result["attempted"] += len(traced) + traced_workload.setup_checks
        result["failed"] += (sum(not o["ok"] for o in traced) + traced_workload.setup_failures
                             + int(mismatched) + fell_off_fast_path)
        layers = per_layer(tracer, traced, before, after, traced_workload.extra_client_s)
        layers["trace_overhead_ratio"] = (traced_wall_s / traced_slowdown) / (wall_s / slowdown)
        # Tail latency and stream rate come from the untraced pass.
        served = args.workload != "sweep-cold"
        e2e = result["end_to_end"]
        layers["tasking.stream.events_per_s"] = e2e["stream_events_per_s"]
        layers["server.req_p90_ms"] = e2e.get("req_p90_ms", 0.0) if served else 0.0
        layers["server.req_p99_ms"] = e2e.get("req_p99_ms", 0.0) if served else 0.0
        layers["server.req_samples"] = e2e["req_samples"] if served else 0
        result["per_layer"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
