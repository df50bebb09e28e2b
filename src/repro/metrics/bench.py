"""Self-instrumented wall-clock benchmark of the tier-1 suite.

``run_bench`` executes the standard benchmark matrix (the three headline
workloads under the managed and unmanaged policies, fast sizes) while
timing four phases of each run with the host clock:

- ``graph_build``: workload construction + graph partitioning
- ``placement``: policy decision time (``on_run_start`` + the per-task
  hooks), measured through a timing proxy around the policy object
- ``executor_loop``: everything else inside ``Executor.run``
- ``cache_io``: a result-cache put/get round-trip per run
- ``service_round``: one stream-mode service run (arrival generation,
  admission, batch rounds) over pre-simulated jobs — the open-system
  driver's own overhead, excluding the closed-DAG simulations it reuses

Host wall clock is machine-dependent, so the profile also stores every
time normalized by a calibration primitive (a fixed pure-Python loop
timed on the same machine); regression gates compare normalized totals
so a slower CI runner does not read as a regression.  The profile is
plain JSON: ``BENCH.json`` by default, which git ignores; per-change
records are checked in as ``benchmarks/BENCH_PR<n>.json``.
``check_against_baseline`` implements the relative CI gate and
``check_phase_budgets`` the absolute per-phase ceilings (e.g. the
executor-core ``executor_loop`` budget).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any

__all__ = [
    "BENCH_SUITE",
    "run_bench",
    "write_profile",
    "check_against_baseline",
    "check_phase_budgets",
]

PROFILE_VERSION = 1

#: The benchmark matrix: workload x policy cells, each run ``reps`` times.
BENCH_SUITE: tuple[tuple[str, str], ...] = (
    ("cg", "tahoe"),
    ("cg", "nvm-only"),
    ("heat", "tahoe"),
    ("heat", "nvm-only"),
    ("sparselu", "tahoe"),
    ("sparselu", "nvm-only"),
)

PHASES = ("graph_build", "placement", "executor_loop", "cache_io", "service_round")


class _PhaseClock:
    """Accumulates wall-clock seconds per phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {p: 0.0 for p in PHASES}

    def add(self, phase: str, dt: float) -> None:
        self.seconds[phase] += dt


class _TimedPolicy:
    """Delegating proxy that bills policy hook time to the placement phase."""

    def __init__(self, inner: Any, clock: _PhaseClock) -> None:
        self._inner = inner
        self._clock = clock
        # The per-task hooks run thousands of times per rep; billing
        # straight into the phase dict keeps the proxy's own cost (which
        # is charged to the phase it measures) to two clock reads.
        self._seconds = clock.seconds

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def on_run_start(self, ctx: Any) -> None:
        t0 = perf_counter()
        try:
            return self._inner.on_run_start(ctx)
        finally:
            self._seconds["placement"] += perf_counter() - t0

    def before_task(self, task: Any, ctx: Any, now: float) -> float:
        t0 = perf_counter()
        try:
            return self._inner.before_task(task, ctx, now)
        finally:
            self._seconds["placement"] += perf_counter() - t0

    def after_task(self, task: Any, record: Any, ctx: Any) -> float:
        t0 = perf_counter()
        try:
            return self._inner.after_task(task, record, ctx)
        finally:
            self._seconds["placement"] += perf_counter() - t0


def _timed_policy(inner: Any, clock: _PhaseClock) -> Any:
    """Wrap ``inner`` so its placement work bills to the placement phase.

    Policies whose per-task hooks are the no-op ``BasePolicy``
    implementations get a shim that times only ``on_run_start`` and
    *inherits* the no-op hooks: wrapping those too would bill pure proxy
    overhead, which no placement work causes, to the placement phase."""
    from repro.baselines.policies import BasePolicy

    cls = type(inner)
    if (
        cls.before_task is BasePolicy.before_task
        and cls.after_task is BasePolicy.after_task
    ):

        class _TimedStaticPolicy(BasePolicy):
            name = inner.name

            def __getattr__(self, name: str) -> Any:
                return getattr(inner, name)

            def on_run_start(self, ctx: Any) -> None:
                t0 = perf_counter()
                try:
                    return inner.on_run_start(ctx)
                finally:
                    clock.add("placement", perf_counter() - t0)

        return _TimedStaticPolicy()
    return _TimedPolicy(inner, clock)


def calibrate(passes: int = 3) -> float:
    """Best-of-N timing of a fixed pure-Python primitive (seconds).

    The primitive exercises the interpreter operations the simulator
    leans on (dict stores, float arithmetic, integer masking), so its
    runtime tracks the machine speed the suite actually sees.
    """
    best = float("inf")
    for _ in range(passes):
        t0 = perf_counter()
        acc = 0.0
        d: dict[int, float] = {}
        for i in range(200_000):
            d[i & 1023] = acc
            acc += i * 0.5
        best = min(best, perf_counter() - t0)
    return best


def _bench_one(workload: str, policy_name: str, seed: int | None,
               clock: _PhaseClock, cache_dir: Path,
               do_cache_io: bool = True) -> dict[str, Any]:
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import (
        _build_machine,
        make_policy,
        workload_params,
    )
    from repro.experiments.spec import RunResult, RunSpec
    from repro.memory.hms import HeterogeneousMemorySystem
    from repro.memory.presets import nvm_bandwidth_scaled
    from repro.tasking.executor import Executor
    from repro.workloads.memo import build_cached

    spec = RunSpec(
        workload=workload, policy=policy_name, nvm=nvm_bandwidth_scaled(0.5),
        fast=True, seed=seed,
    )
    run_t0 = perf_counter()

    t0 = perf_counter()
    policy = make_policy(policy_name)
    max_chunk = getattr(policy, "partition_max_bytes", None)
    # The interned build path the harness itself runs: first rep builds,
    # later reps measure the memo hit — that *is* the graph-build phase
    # the suite pays in practice.
    wl = build_cached(
        workload,
        partition_max_bytes=max_chunk or None,
        **workload_params(workload, fast=True),
    )
    graph = wl.graph
    clock.add("graph_build", perf_counter() - t0)

    dram_dev, cfg = _build_machine(spec, wl.total_bytes)
    hms = HeterogeneousMemorySystem(dram_dev, spec.nvm)

    placement_before = clock.seconds["placement"]
    t0 = perf_counter()
    trace = Executor(hms, cfg).run(graph, _timed_policy(policy, clock))
    run_wall = perf_counter() - t0
    placement_in_run = clock.seconds["placement"] - placement_before
    clock.add("executor_loop", max(0.0, run_wall - placement_in_run))

    if do_cache_io:
        t0 = perf_counter()
        cache = ResultCache(cache_dir)
        result = RunResult.from_trace(spec, trace, dram_dev, spec.nvm)
        cache.put(spec.cache_key(), result.to_payload())
        assert cache.get(spec.cache_key()) is not None
        clock.add("cache_io", perf_counter() - t0)

    return {
        "workload": workload,
        "policy": policy_name,
        "wall_s": perf_counter() - run_t0,
        "makespan": trace.makespan,
        "n_tasks": len(trace.records),
    }


def _bench_service(seed: int | None, clock: _PhaseClock) -> None:
    """Time one stream-mode service pass: arrival generation, admission,
    and the batch-round event loop over a fixed tenant mix.

    Service times are constants (no closed-DAG simulation inside the
    timed region), so the phase isolates the open-system driver's own
    overhead — the cost ``serve`` adds on top of the cached job runs.
    """
    from repro.tasking.stream import AdmissionController, JobRequest, StreamDriver
    from repro.util.units import MIB
    from repro.workloads.arrivals import TenantSpec, generate_arrivals

    tenants = (
        TenantSpec(name="steady", rate_hz=400.0, arrival="poisson", credit_mib=512.0),
        TenantSpec(name="bursty", rate_hz=200.0, arrival="burst", credit_mib=256.0),
    )
    service_s = {"steady": 2e-3, "bursty": 5e-3}
    t0 = perf_counter()
    arrivals = generate_arrivals(tenants, horizon_s=1.0, seed=seed or 0)
    jobs = [
        JobRequest(a.job_id, a.tenant, a.time, demand_bytes=16 * MIB)
        for a in arrivals
    ]
    admission = AdmissionController({t.name: int(t.credit_mib * MIB) for t in tenants})
    StreamDriver(
        jobs,
        admission,
        job_runner=lambda job: service_s[job.tenant],
        round_interval_s=0.002,
        lanes=4,
    ).run()
    clock.add("service_round", perf_counter() - t0)


def run_bench(
    reps: int = 3,
    seed: int | None = None,
    only_phases: "tuple[str, ...] | list[str] | None" = None,
) -> dict[str, Any]:
    """Run the benchmark matrix; returns the profile dict (see module doc).

    ``only_phases`` restricts the profile to a subset of :data:`PHASES`
    (and skips the side passes the subset does not need — the service
    round and the cache round-trip): a focused ``bench --phase placement``
    answers "did my planner change move the needle?" in a fraction of the
    full suite's wall clock.  The run phases (``graph_build``,
    ``placement``, ``executor_loop``) always execute together — they are
    one simulation — so filtering them changes only what is reported.
    """
    import tempfile

    if only_phases is not None:
        selected = tuple(only_phases)
        unknown = [p for p in selected if p not in PHASES]
        if unknown:
            raise ValueError(
                f"unknown phase(s) {unknown}; valid phases: {list(PHASES)}"
            )
    else:
        selected = PHASES

    calibration_s = calibrate()
    clock = _PhaseClock()
    runs: list[dict[str, Any]] = []
    do_cache_io = "cache_io" in selected
    do_service = "service_round" in selected
    suite_t0 = perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        for rep in range(reps):
            for workload, policy_name in BENCH_SUITE:
                rec = _bench_one(
                    workload, policy_name, seed, clock, Path(tmp) / f"rep{rep}",
                    do_cache_io=do_cache_io,
                )
                rec["rep"] = rep
                runs.append(rec)
            if do_service:
                _bench_service(seed, clock)
    total_wall_s = perf_counter() - suite_t0

    # Noise-robust gate statistic: the fastest complete rep.  Transient
    # host load inflates some reps; the minimum tracks machine speed.
    rep_totals = [
        sum(r["wall_s"] for r in runs if r["rep"] == rep) for rep in range(reps)
    ]
    best_rep_s = min(rep_totals)

    return {
        "version": PROFILE_VERSION,
        "suite": [{"workload": w, "policy": p} for w, p in BENCH_SUITE],
        "reps": reps,
        "n_runs": len(runs),
        "calibration_s": calibration_s,
        "phases": {k: clock.seconds[k] for k in selected},
        "normalized_phases": {
            k: clock.seconds[k] / calibration_s for k in selected
        },
        "total_wall_s": total_wall_s,
        "normalized_total": total_wall_s / calibration_s,
        "best_rep_s": best_rep_s,
        "normalized_best_rep": best_rep_s / calibration_s,
        "runs": runs,
    }


def write_profile(profile: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(profile, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def check_against_baseline(
    profile: dict[str, Any],
    baseline_path: str | Path,
    gate_pct: float = 20.0,
    phase_gate_pct: float | None = 25.0,
    phase_budgets: dict[str, float] | None = None,
) -> tuple[bool, str]:
    """Compare normalized totals (and per-phase times) against a baseline.

    Returns ``(ok, message)``; ``ok`` is False when the current
    calibration-normalized wall clock exceeds the baseline's by more than
    ``gate_pct`` percent, or — when ``phase_gate_pct`` is not ``None`` —
    when any single normalized phase regresses by more than that percent
    (so one phase cannot quietly eat the headroom another phase earned).
    The total comparison uses the fastest complete rep (noise-robust
    against transient host load) normalized by the calibration primitive
    (comparable across machine speeds).

    ``phase_budgets`` adds *absolute* ceilings on top of the relative
    gates: a mapping of phase name to the maximum allowed normalized
    phase time (the profile's ``normalized_phases`` value, i.e. seconds
    summed over every rep divided by the calibration time).  Unlike the
    relative gates, a budget holds even if the checked-in baseline
    drifts upward — it pins the performance contract itself (e.g. the
    executor-core rewrite's ``executor_loop < 2.0``).
    """
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))

    def _stat(p: dict[str, Any]) -> float:
        if "normalized_best_rep" in p:
            return float(p["normalized_best_rep"])
        return float(p["normalized_total"]) / float(p.get("reps") or 1)

    base = _stat(baseline)
    now = _stat(profile)
    delta_pct = (now - base) / base * 100.0
    ok = delta_pct <= gate_pct
    verdict = "ok" if ok else f"REGRESSION (> {gate_pct:.0f}% gate)"
    lines = [
        f"bench gate: normalized best-rep wall clock {now:.1f} vs baseline "
        f"{base:.1f} ({delta_pct:+.1f}%) -- {verdict}"
    ]

    if phase_gate_pct is not None:
        base_phases = baseline.get("normalized_phases") or {}
        now_phases = profile.get("normalized_phases") or {}
        for phase in PHASES:
            b = float(base_phases.get(phase, 0.0))
            n = float(now_phases.get(phase, 0.0))
            if b <= 0.0:
                continue  # phase absent from the baseline: nothing to gate
            phase_delta = (n - b) / b * 100.0
            phase_ok = phase_delta <= phase_gate_pct
            if not phase_ok:
                ok = False
            phase_verdict = (
                "ok" if phase_ok else f"REGRESSION (> {phase_gate_pct:.0f}% gate)"
            )
            lines.append(
                f"  phase {phase}: {n:.2f} vs {b:.2f} "
                f"({phase_delta:+.1f}%) -- {phase_verdict}"
            )

    if phase_budgets:
        budgets_ok, budget_lines = check_phase_budgets(profile, phase_budgets)
        if not budgets_ok:
            ok = False
        lines.extend("  " + ln for ln in budget_lines.splitlines())
    return ok, "\n".join(lines)


def check_phase_budgets(
    profile: dict[str, Any], phase_budgets: dict[str, float]
) -> tuple[bool, str]:
    """Check absolute per-phase ceilings; see ``check_against_baseline``.

    Each budget bounds the profile's ``normalized_phases`` value (phase
    seconds summed over every rep, divided by the calibration time).
    Usable standalone — unlike the relative gates it needs no baseline.
    """
    ok = True
    lines = []
    now_phases = profile.get("normalized_phases") or {}
    for phase, budget in sorted(phase_budgets.items()):
        if phase not in PHASES:
            ok = False
            lines.append(f"budget {phase}: unknown phase -- FAIL")
            continue
        n = float(now_phases.get(phase, 0.0))
        budget_ok = n <= budget
        if not budget_ok:
            ok = False
        verdict = "ok" if budget_ok else "OVER BUDGET"
        lines.append(f"budget {phase}: {n:.2f} vs ceiling {budget:.2f} -- {verdict}")
    return ok, "\n".join(lines)
