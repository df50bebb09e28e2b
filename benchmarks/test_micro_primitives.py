"""Microbenchmarks of the library's hot primitives.

These are classic pytest-benchmark targets (many fast iterations): the
executor's event loop throughput, dependence inference, the knapsack DP,
and the sampling profiler — the costs that bound how large a task program
the simulator can handle — plus one cold graph build with its access
table, the set-up cost of a new spec, the replans of one managed run,
the demand projections of managed sparselu and cg runs, the demand
projection's suffix table, the energy accounting of a
finished run, and a run with the telemetry plane on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.manager as manager
from repro.baselines import NVMOnlyPolicy
from repro.core.knapsack import (
    clear_solver_cache,
    greedy_by_density,
    solve_knapsack_arrays,
    solver_cache_stats,
)
from repro.core.demand import DemandProjection, scan_frontier
from repro.core.manager import DataManagerPolicy
from repro.memory.energy import EnergyReport
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.metrics import Telemetry, TelemetryConfig
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
    assert len(tr.tasks) == len(w.graph)


def test_bench_instrumented_run(benchmark):
    """A warm nvm-only heat-3k run (16x16 tiles x 12 sweeps) with the
    telemetry plane on: the per-task stream hand-off, the machine-state
    change points and the end-of-run expansion onto the cadence grid."""
    w = build_cached("heat", grid=16, iterations=12)

    def run():
        tel = Telemetry(TelemetryConfig())
        return Executor(_machine(), ExecutorConfig(n_workers=8), telemetry=tel).run(
            w.graph, NVMOnlyPolicy()
        )

    tr = benchmark(run)
    assert len(tr.tasks) == len(w.graph)
    assert len(tr.telemetry["samplers"]) == 9


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
    assert len(tr.tasks) == len(w.graph)


def test_bench_energy_from_trace(benchmark):
    """Energy accounting of a finished heat-3k ``nvm-only`` run (16x16
    tiles x 12 sweeps): the dispatched tasks' traffic gathered from the
    access table, priced per row by its DRAM flag and summed left to
    right."""
    w = build("heat", grid=16, iterations=12)
    hms = _machine()
    tr = Executor(hms, ExecutorConfig(n_workers=8)).run(w.graph, NVMOnlyPolicy())
    rep = benchmark(EnergyReport.from_trace, tr, hms.dram, hms.nvm)
    assert rep.nvm_bytes_written > 0 and rep.dynamic_j > 0


class _SeenModel:
    """A ready type model as one replan read it (duration, slot rows)."""

    ready = True

    def __init__(self, mean_duration: float, rows: tuple) -> None:
        self.mean_duration = mean_duration
        self._rows = rows

    def slot_rows(self) -> tuple:
        return self._rows


def _record_replans(monkeypatch, workload: str, **overrides):
    """Run one managed run of ``workload`` on an interned graph and
    return every frontier pass, demand projection, first-use pass and
    two-scope plan its replans ran, with their inputs, in order (each
    projection with a snapshot of the type models it read)."""
    calls = []
    project = DemandProjection.project

    def recording_project(self, core, front, models, need_window):
        seen = [
            _SeenModel(m.mean_duration, m.slot_rows()) if m is not None else None
            for m in models
        ]
        calls.append((project, (core, front, seen, need_window), {}))
        return project(self, core, front, models, need_window)

    def recording(fn):
        def record(*args, **kwargs):
            calls.append((fn, args, kwargs))
            return fn(*args, **kwargs)

        return record

    monkeypatch.setattr(DemandProjection, "project", recording_project)
    monkeypatch.setattr(manager, "scan_frontier", recording(manager.scan_frontier))
    monkeypatch.setattr(manager, "first_use_offsets_split",
                        recording(manager.first_use_offsets_split))
    monkeypatch.setattr(manager, "make_plan", recording(manager.make_plan))
    w = build_cached(workload, **overrides)
    policy = DataManagerPolicy()
    Executor(_machine(), ExecutorConfig(n_workers=8)).run(w.graph, policy)
    monkeypatch.undo()
    assert policy.stats["replans"] > 0 and calls
    return calls, project


def _replay(calls, project, fresh, only_projections=False):
    for fn, args, kwargs in calls:
        if fn is project:
            fn(fresh, *args)
        elif not only_projections:
            fn(*args, **kwargs)


def test_bench_replan(benchmark, monkeypatch):
    """The replans of one managed heat-1k run on an interned graph:
    every frontier pass, demand projection, first-use pass and two-scope
    plan (one weigher call over both scopes, then each scope's knapsack)
    they ran, recorded with their inputs and replayed in order on a
    fresh ``DemandProjection``, so the per-run row-term table is rebuilt
    as in the run.  Enforcement, which moves data, is not replayed.  The solver
    memo is cleared in the un-timed setup."""
    calls, project = _record_replans(monkeypatch, "heat", grid=10, iterations=10)

    def setup():
        clear_solver_cache()
        return (calls, project, DemandProjection()), {}

    benchmark.pedantic(_replay, setup=setup, rounds=5)


@pytest.mark.parametrize(
    "workload, overrides",
    [
        ("sparselu", {"n_blocks": 20}),
        ("cg", {"n_chunks": 16, "iterations": 16}),
    ],
    ids=["sparselu-1600", "cg-800"],
)
def test_bench_projection_replay(benchmark, monkeypatch, workload, overrides):
    """The demand projections of one managed run of sparselu (20x20
    blocks) or cg (16 chunks x 16 iterations), recorded as in
    ``test_bench_replan`` and replayed in order on a fresh
    ``DemandProjection``, so
    each row-term epoch builds its suffix table again: these folds run
    many steps (objects touched 15-28 times on sparselu, up to 512 on
    cg), where heat's run five."""
    calls, project = _record_replans(monkeypatch, workload, **overrides)

    def setup():
        return (calls, project, DemandProjection(), True), {}

    benchmark.pedantic(_replay, setup=setup, rounds=5)


def test_bench_suffix_table(benchmark):
    """One suffix-table build and one full-horizon lookup on a warm
    heat-3k graph (16x16 tiles x 12 sweeps) with every type modelled
    and the whole graph remaining: the per-row suffix folds a row-term
    epoch builds once, then the projection read off them.  The un-timed
    setup takes a fresh ``DemandProjection`` and builds its row terms,
    so every rep builds the table over warm row terms."""
    w = build_cached("heat", grid=16, iterations=12)
    core = w.graph.exec_core()
    rng = spawn_rng(1, "bench-suffix")
    models = [
        _SeenModel(1e-4, tuple(tuple(rng.random(7).tolist()) for _ in range(6)))
        for _ in core.type_names
    ]
    remaining = np.arange(len(core.tasks), dtype=np.int64)
    front = scan_frontier(core, remaining, 48, np.ones(len(core.type_names)), 8)
    last = []

    def project(proj):
        return proj.project(core, front, models, False)

    def setup():
        proj = DemandProjection()
        proj.terms_for(core, models)
        last[:] = [proj]
        return (proj,), {}

    _, (batch, _, _) = benchmark.pedantic(project, setup=setup, rounds=10)
    assert last[0].suffix_table and len(batch) == len(core.accesses.obj_uid)


def test_bench_knapsack_dp(benchmark):
    """One cold DP solve per rep: the exact-fingerprint memo is dropped
    in the un-timed setup, otherwise every rep after the first measures
    a dict probe instead of the DP.  The sizes are whole 512 KiB DP
    units whose gcd is 1, so the DP runs at full width (a common factor
    would narrow it).  It stays multi-size so that it keeps timing the
    DP: one-size instances never build the DP table (see
    ``test_bench_knapsack_tie_group``)."""
    rng = spawn_rng(1, "bench-knap")
    n = 200
    values = rng.uniform(0.1, 10.0, n).tolist()
    units = rng.integers(1, 128, n)
    assert np.gcd.reduce(units) == 1
    sizes = (units * 2**19).tolist()
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


def test_bench_knapsack_tie_group(benchmark):
    """One solve per rep of a one-size instance with an exact tie at the
    cut, shaped like the median one-size tie of a managed heat what-if
    run: 188 candidates, room for 56, an 11-way tie straddling the cut
    with 6 slots left for it.  The pass over the tie group answers it
    with the DP's mask without building the DP table;
    ``test_bench_knapsack_dp`` stays multi-size so that it keeps timing
    the DP."""
    rng = spawn_rng(1, "bench-knap")
    values = np.concatenate((rng.uniform(2.0, 10.0, 50), np.full(11, 1.0), rng.uniform(0.1, 0.9, 127)))
    rng.shuffle(values)
    sizes = np.full(values.size, 9 * 2**20)  # 9 DP units of 1 MiB: 56 fit in 512
    mask = benchmark.pedantic(
        solve_knapsack_arrays,
        args=(values, sizes, 512 * 2**20),
        setup=clear_solver_cache,
        rounds=20,
    )
    assert sum(mask) == 56 and solver_cache_stats()["uniform_group"] == 1


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
