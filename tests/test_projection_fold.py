"""Differential suite for the replan's array-shaped projection passes.

The demand projection (``DataManagerPolicy._demand_stats_split``), the
first-use offsets (:func:`repro.core.lookahead.first_use_offsets_split`)
and the parallel slack (``DataManagerPolicy._parallel_slack``) run on the
graph's access CSR with numpy.  Each must be *bitwise* identical to the
retired per-task loop kept in ``tests/reference_projection.py``.
Hypothesis drives both over random graphs, remaining-task subsets and
slot tables — zero-miss and zero-memory-seconds rows, signed zeros,
objects touched once and objects touched 500+ times, model-less types,
slot-less models, windows longer than the remaining list and empty
remaining lists — and every float is compared by its IEEE-754 bytes.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.policies import BasePolicy
from repro.core.demand import DemandBatch
from repro.core.lookahead import first_use_offsets_split
from repro.core.manager import DataManagerPolicy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task

from tests.helpers import predecessors, reads, task_depths, writes
from tests.reference_projection import (
    demand_stats_split_ref,
    first_use_offsets_split_ref,
    parallel_slack_ref,
)

TYPES = ("a", "b", "c", "d")
MODES = (AccessMode.READ, AccessMode.WRITE, AccessMode.READWRITE)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class StubModel:
    """A ready type model: what the projection reads of ``TypeModel``."""

    ready = True

    def __init__(self, mean_duration: float, rows: tuple[tuple[float, ...], ...]):
        self.mean_duration = mean_duration
        self._rows = rows

    def slot_rows(self) -> tuple[tuple[float, ...], ...]:
        return self._rows


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 5e-324, 1e-300, 7e15]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)
_FRACTIONS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1.0 / 3.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
#: (loads, stores, misses, bw_demand, confidence, mem_seconds, dram_frac);
#: misses and mem_seconds are zero often, so the masked divides skip.
#: bw_demand only feeds the ``>`` max, so it also takes values that must
#: never win it (NaN, negatives).
_ROW = st.tuples(
    _VALUES,
    _VALUES,
    st.one_of(st.just(0.0), _VALUES),
    st.one_of(st.sampled_from([float("nan"), -1.0]), _VALUES),
    _FRACTIONS,
    st.one_of(st.just(0.0), _VALUES),
    _FRACTIONS,
)
#: A ready model: (mean duration, slot rows); an empty slot tuple is a
#: ready model with no slots.
_READY = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.lists(_ROW, max_size=4).map(tuple),
)


@st.composite
def scenarios(draw):
    # Long runs keep every task and model every type, so the hot object
    # really folds 500+ rows; short runs cover model-less types and
    # sparse remaining sets (empty ones included).
    long_run = draw(st.booleans())
    model = _READY if long_run else st.one_of(st.none(), _READY)
    models = {name: draw(model) for name in TYPES}
    n_tasks = draw(
        st.integers(500, 560) if long_run else st.integers(0, 40)
    )
    n_objects = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    keep = 1.0 if long_run else draw(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    )
    window = draw(st.one_of(st.just(n_tasks + 8), st.integers(0, n_tasks + 8)))
    n_workers = draw(st.integers(1, 8))
    need_window = draw(st.booleans())
    return models, n_tasks, n_objects, seed, keep, window, n_workers, need_window


def build_graph(n_tasks: int, n_objects: int, seed: int, long_run: bool):
    """Random tasks over a small object pool.  Long runs add a hot object
    every task touches (500+ rows) and a fresh object per tenth task
    (touched once)."""
    rng = np.random.default_rng(seed)
    pool = [DataObject(f"o{k}", int(rng.integers(1, 1 << 20))) for k in range(n_objects)]
    hot = DataObject("hot", 4096)
    g = TaskGraph()
    for i in range(n_tasks):
        chosen = rng.choice(n_objects, size=int(rng.integers(0, min(4, n_objects) + 1)), replace=False)
        objs = [pool[k] for k in chosen]
        if long_run:
            objs.append(hot)
            if i % 10 == 0:
                objs.append(DataObject(f"once{i}", 64))
        accesses = {}
        for obj in objs:
            mode = MODES[int(rng.integers(0, 3))]
            traffic = int(rng.integers(0, 3)) * 100  # zero-traffic accesses too
            accesses[obj] = ObjectAccess(
                mode,
                loads=traffic if reads(mode) else 0,
                stores=traffic // 2 if writes(mode) else 0,
            )
        g.add(Task(f"t{i}", TYPES[int(rng.integers(0, len(TYPES)))], accesses))
    return g


def assert_batch_bitwise(got: DemandBatch, want: DemandBatch) -> None:
    assert got.uid.tolist() == want.uid.tolist()  # row order
    assert got.size_bytes.dtype == np.int64
    assert got.size_bytes.tolist() == want.size_bytes.tolist()
    for name in (
        "loads", "stores", "misses", "bw_demand", "confidence",
        "mem_seconds", "dram_frac",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.float64 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), f"{name}: {a!r} != {b!r}"


def offsets_by_uid(csr, scope) -> list[tuple[int, bytes]]:
    objs, offs = scope
    return [(u, bits(o)) for u, o in zip(csr.obj_uid[objs].tolist(), offs.tolist())]


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_projection_passes_match_scalar_reference(scenario) -> None:
    models, n_tasks, n_objects, seed, keep, window, n_workers, need_window = scenario
    graph = build_graph(n_tasks, n_objects, seed, n_tasks >= 500)
    core = graph.exec_core()
    csr = core.accesses
    rng = np.random.default_rng(seed + 1)
    remaining = np.flatnonzero(rng.random(n_tasks) < keep).astype(np.int64)
    tasks = tuple(core.tasks[i] for i in remaining.tolist())

    policy = DataManagerPolicy()
    policy._models = {
        name: StubModel(*m) for name, m in models.items() if m is not None
    }

    # Demand projection, both scopes.
    got = policy._demand_stats_split(core, remaining, window, need_window)
    want = demand_stats_split_ref(tasks, window, policy._model_for, need_window)
    for (g_batch, g_horizon, g_objs), (w_batch, w_horizon) in zip(got, want):
        assert_batch_bitwise(g_batch, w_batch)
        assert bits(g_horizon) == bits(w_horizon)
        assert csr.obj_uid[g_objs].tolist() == w_batch.uid.tolist()

    # First-use offsets, both scopes (the modelless fallback is 1e-4 s).
    durations = {
        name: models[name][0] if models.get(name) is not None else 1e-4
        for name in core.type_names
    }
    got_fu = first_use_offsets_split(
        core, remaining, window,
        np.array([durations[n] for n in core.type_names]), n_workers,
    )
    want_fu = first_use_offsets_split_ref(tasks, window, durations, n_workers)
    for g_scope, w_scope in zip(got_fu, want_fu):
        assert offsets_by_uid(csr, g_scope) == [
            (u, bits(o)) for u, o in w_scope.items()
        ]

    # Parallel slack over the full horizon and the window.
    depths = spawn_order_depths(graph)
    for scope in (remaining, remaining[:window]):
        got_slack = DataManagerPolicy._parallel_slack(core.depth[scope], n_workers)
        want_slack = parallel_slack_ref(
            tuple(core.tasks[i] for i in scope.tolist()), depths, n_workers
        )
        assert bits(got_slack) == bits(want_slack)


def spawn_order_depths(graph: TaskGraph) -> dict[int, int]:
    """Longest-path depth per tid, one pass in spawn order (a
    topological order): the scalar definition the core's Kahn pass
    must reproduce."""
    depths: dict[int, int] = {}
    for t in graph.tasks:
        depths[t.tid] = 1 + max((depths[p.tid] for p in predecessors(graph, t)), default=-1)
    return depths


def test_csr_depth_matches_graph_depths() -> None:
    graph = build_graph(200, 8, 3, True)
    core = graph.exec_core()
    depths = spawn_order_depths(graph)
    assert core.depth.tolist() == [depths[t.tid] for t in core.tasks]
    assert task_depths(graph) == depths


def test_remaining_indices_track_the_frontier() -> None:
    """At each ``before_task``, the remaining indices are exactly the
    tasks not handed to the hook before (the current one included)."""
    seen: set[int] = set()

    class Probe(BasePolicy):
        name = "probe"

        def before_task(self, task, ctx, now):
            core = ctx.graph.exec_core()
            idx = ctx.remaining_indices()
            assert not idx.flags.writeable
            assert idx.tolist() == [
                i for i, t in enumerate(core.tasks) if t.tid not in seen
            ]
            seen.add(task.tid)
            return 0.0

    graph = build_graph(60, 6, 11, False)
    hms = HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))
    Executor(hms, ExecutorConfig(n_workers=4)).run(graph, Probe())
    assert len(seen) == 60
