"""The module bindings the repository benchmark's tracer times.

``perfbench/tracing.py`` attributes host time per layer by swapping a
timed wrapper onto each binding below, which its callers look up at call
time.  A refactor that calls the function some other way (an imported
name, a method, an inlined body) still installs, but the wrapper never
runs, and that layer's time silently moves into the manager hooks' self
time.  This test wraps the same bindings with counters and runs a tiny
managed spec and a tiny stream spec through the runner: every counter
must move.
"""

from __future__ import annotations

from collections import Counter

import repro.core.manager as manager
import repro.core.placement as placement
import repro.experiments.runner as runner
import repro.experiments.service as service
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled

#: (module, attribute) of each function binding the tracer wraps.
FUNCTIONS = (
    (runner, "build_cached"),
    (runner, "make_policy"),
    (manager, "first_use_offsets_split"),
    (manager, "make_plan"),
    (placement, "solve_knapsack_arrays"),
    (service, "generate_arrivals"),
)


def test_tracer_bindings_run(monkeypatch) -> None:
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr in FUNCTIONS:
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))

    class CountedExecutor(runner.Executor):
        def run(self, graph, policy):
            calls["Executor.run"] += 1
            return super().run(graph, policy)

    monkeypatch.setattr(runner, "Executor", CountedExecutor)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")

    nvm = nvm_bandwidth_scaled(0.5)
    managed = RunSpec(
        workload="heat", policy="tahoe", nvm=nvm,
        workload_overrides={"grid": 4, "iterations": 2},
    )
    runner.dispatch_spec(managed)
    stream = managed.replace(
        workload_overrides={"grid": 2, "iterations": 1},
        stream={"horizon_s": 0.01, "seed": 1},
    )
    runner.dispatch_spec(stream)

    want = [attr for _, attr in FUNCTIONS] + ["Executor.run"]
    assert all(calls[name] > 0 for name in want), dict(calls)
