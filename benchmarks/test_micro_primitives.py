"""Microbenchmarks of the library's hot primitives.

These are classic pytest-benchmark targets (many fast iterations): the
executor's event loop throughput, dependence inference, the knapsack DP,
and the sampling profiler — the costs that bound how large a task program
the simulator can handle — plus one cold graph build with its access
table, the set-up cost of a new spec, and the replans of one managed
run.
"""

from __future__ import annotations

import repro.core.manager as manager
from repro.baselines import NVMOnlyPolicy
from repro.core.knapsack import clear_solver_cache, greedy_by_density, solve_knapsack_arrays
from repro.core.manager import DataManagerPolicy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.profiling.sampler import SamplingProfiler
from repro.tasking.executor import Executor, ExecutorConfig, placed_memory_times
from repro.util.rng import spawn_rng
from repro.workloads import build
from repro.workloads.memo import build_cached, clear_build_cache


def _machine():
    return HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))


def test_bench_graph_construction(benchmark):
    """Cold graph construction: task spawns, interned footprints and
    dependence inference into edge sets (no per-edge records)."""
    w = benchmark(build, "cholesky", n_tiles=10)
    assert len(w.graph) > 100


def test_bench_cold_graph_build(benchmark):
    """A cold heat-3k graph (16x16 tiles x 12 sweeps) and its access
    table: spawns, interned footprints, dependence inference with the
    table rows appended in the same pass, and the snapshot's array
    conversion.  The build memo is cleared in the un-timed setup, so
    every rep builds."""

    def run():
        w = build_cached("heat", grid=16, iterations=12)
        return w, w.graph.exec_core().accesses

    w, csr = benchmark.pedantic(run, setup=clear_build_cache, rounds=10)
    assert len(w.graph) == 3072
    assert len(csr.indptr) == len(w.graph) + 1


def test_bench_executor_throughput_nvm_only(benchmark):
    """Event-loop cost with a trivial policy (simulator overhead floor)."""
    w = build("cholesky", n_tiles=10)

    def run():
        return Executor(_machine(), ExecutorConfig(n_workers=8)).run(
            w.graph, NVMOnlyPolicy()
        )

    tr = benchmark(run)
    assert len(tr.records) == len(w.graph)


def test_bench_executor_with_data_manager(benchmark):
    """Full manager in the loop: profiling + planning + enforcement.

    The planner's process-global solver cache would make every rep after
    the first a warm replay; clearing it in the un-timed setup keeps each
    rep a cold placement pass — the cost this benchmark exists to bound.
    """
    w = build("heat", grid=6, iterations=6)

    def run():
        return Executor(_machine(), ExecutorConfig(n_workers=8)).run(
            w.graph, DataManagerPolicy()
        )

    tr = benchmark.pedantic(run, setup=clear_solver_cache, rounds=5)
    assert len(tr.records) == len(w.graph)


class _SeenModel:
    """A ready type model as one replan read it (duration, slot rows)."""

    ready = True

    def __init__(self, mean_duration: float, rows: tuple) -> None:
        self.mean_duration = mean_duration
        self._rows = rows

    def slot_rows(self) -> tuple:
        return self._rows


def test_bench_replan(benchmark, monkeypatch):
    """The replans of one managed heat-1k run on an interned graph:
    every demand projection, first-use pass and plan (weigher and
    knapsack) they ran, recorded with their inputs and replayed in order
    on a fresh policy, so the per-run row-term table is rebuilt as in
    the run.  Enforcement, which moves data, is not replayed.  The
    solver memo is cleared in the un-timed setup."""
    calls = []
    split = DataManagerPolicy._demand_stats_split

    def recording_split(self, core, *args):
        models = {}
        for name in core.type_names:
            m = self._model_for(name)
            if m is not None:
                models[name] = _SeenModel(m.mean_duration, m.slot_rows())
        calls.append((split, (core, *args), {"models": models}))
        return split(self, core, *args)

    def recording(fn):
        def record(*args, **kwargs):
            calls.append((fn, args, kwargs))
            return fn(*args, **kwargs)

        return record

    monkeypatch.setattr(DataManagerPolicy, "_demand_stats_split", recording_split)
    monkeypatch.setattr(manager, "first_use_offsets_split",
                        recording(manager.first_use_offsets_split))
    monkeypatch.setattr(manager, "make_plan", recording(manager.make_plan))
    w = build_cached("heat", grid=10, iterations=10)
    policy = DataManagerPolicy()
    Executor(_machine(), ExecutorConfig(n_workers=8)).run(w.graph, policy)
    monkeypatch.undo()
    assert policy.stats["replans"] > 0 and calls

    def replay(fresh):
        for fn, args, kwargs in calls:
            if fn is split:
                fresh._models = kwargs["models"]
                fn(fresh, *args)
            else:
                fn(*args, **kwargs)

    def setup():
        clear_solver_cache()
        return (DataManagerPolicy(),), {}

    benchmark.pedantic(replay, setup=setup, rounds=5)


def test_bench_knapsack_dp(benchmark):
    """One cold DP solve per rep: the exact-fingerprint memo is dropped
    in the un-timed setup, otherwise every rep after the first measures
    a dict probe instead of the DP."""
    rng = spawn_rng(1, "bench-knap")
    n = 200
    values = rng.uniform(0.1, 10.0, n).tolist()
    sizes = (rng.integers(1, 64, n) * 2**20).tolist()
    mask = benchmark.pedantic(
        solve_knapsack_arrays,
        args=(values, sizes, 256 * 2**20),
        setup=clear_solver_cache,
        rounds=20,
    )
    assert any(mask)


def test_bench_knapsack_uniform(benchmark):
    """One solve of equal-sized candidates per rep: the stable top-k route
    answers without the DP (the instances of ``test_bench_knapsack_dp``
    have several sizes, so they stay on the DP)."""
    rng = spawn_rng(1, "bench-knap")
    n = 200
    values = rng.uniform(0.1, 10.0, n).tolist()
    sizes = [8 * 2**20] * n
    mask = benchmark.pedantic(
        solve_knapsack_arrays,
        args=(values, sizes, 256 * 2**20),
        setup=clear_solver_cache,
        rounds=20,
    )
    assert sum(mask) == 32


def test_bench_knapsack_greedy(benchmark):
    rng = spawn_rng(1, "bench-knap")
    n = 200
    values = rng.uniform(0.1, 10.0, n).tolist()
    sizes = (rng.integers(1, 64, n) * 2**20).tolist()
    mask = benchmark(greedy_by_density, values, sizes, 256 * 2**20)
    assert any(mask)


def test_bench_sampling_profiler(benchmark):
    w = build("stream", n_tasks=2, iterations=1)
    task = w.graph.tasks[0]
    hms = _machine()
    for obj in w.objects:
        hms.allocate(obj, hms.nvm)
    times = placed_memory_times(w.graph, hms)(task)
    prof = SamplingProfiler(seed=3)
    p = benchmark(prof.sample_task, task, 1e-3, *times)
    assert p.objects
