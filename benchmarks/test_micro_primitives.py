"""Microbenchmarks of the library's hot primitives.

These are classic pytest-benchmark targets (many fast iterations): the
executor's event loop throughput, dependence inference, the knapsack DP,
and the sampling profiler — the costs that bound how large a task program
the simulator can handle.
"""

from __future__ import annotations

from repro.baselines import NVMOnlyPolicy
from repro.core.knapsack import clear_solver_cache, greedy_by_density, solve_knapsack
from repro.core.manager import DataManagerPolicy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.profiling.sampler import SamplingProfiler
from repro.tasking.executor import Executor, ExecutorConfig, placed_memory_times
from repro.util.rng import spawn_rng
from repro.workloads import build


def _machine():
    return HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))


def test_bench_graph_construction(benchmark):
    """Cold graph construction: task spawns, interned footprints and
    dependence inference into edge sets (no per-edge records)."""
    w = benchmark(build, "cholesky", n_tiles=10)
    assert len(w.graph) > 100


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


def test_bench_knapsack_dp(benchmark):
    """One cold DP solve per rep: the exact-fingerprint memo is dropped
    in the un-timed setup, otherwise every rep after the first measures
    a dict probe instead of the DP."""
    rng = spawn_rng(1, "bench-knap")
    n = 200
    values = rng.uniform(0.1, 10.0, n).tolist()
    sizes = (rng.integers(1, 64, n) * 2**20).tolist()
    mask = benchmark.pedantic(
        solve_knapsack,
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
        solve_knapsack,
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
