"""Differential suite for the replan's array-shaped projection passes.

The demand projection (:meth:`repro.core.demand.DemandProjection.project`),
the first-use offsets (:func:`repro.core.demand.first_use_offsets_split`)
and the parallel slack (``DataManagerPolicy._parallel_slack``) run on the
graph's access CSR with numpy.  Each must be *bitwise* identical to the
retired per-task loop kept in ``tests/reference_projection.py``.
Hypothesis drives both over random graphs, remaining-task subsets and
slot tables — zero-miss and zero-memory-seconds rows, signed zeros,
objects touched once and objects touched 500+ times, model-less types,
slot-less models, windows longer than the remaining list and empty
remaining lists — and every float is compared by its IEEE-754 bytes.
All three read the remaining tasks through one frontier pass
(:func:`repro.core.demand.scan_frontier`).  The remaining sets
include every task from a frontier on, whose demand the projection
reads off its suffix-fold table and whose first uses it reads off the
graph's next-hot-row column, and frontiers with tasks dispatched out of
order or gaps at the tail, which it folds and scans directly; each case
asserts the routes it took.
"""

from __future__ import annotations

import struct
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.demand as demand
from repro.baselines.policies import BasePolicy
from repro.core.demand import (
    DemandBatch,
    DemandProjection,
    first_use_offsets_split,
    scan_frontier,
)
from repro.core.manager import DataManagerPolicy
from repro.core.partition import partition_graph
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.graph import AccessCSR, TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB
from repro.workloads.memo import build_cached

from tests.helpers import predecessors, reads, task_depths, writes
from tests.reference_projection import (
    EMPTY_DEMAND,
    demand_stats_split_ref,
    fold_row,
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
    # Long runs model every type, so the hot object really folds 500+
    # rows; short runs cover model-less types and sparse remaining sets
    # (empty ones included).  Half the short runs model every type too,
    # which the suffix table needs.
    long_run = draw(st.booleans())
    every_type = long_run or draw(st.booleans())
    model = _READY if every_type else st.one_of(st.none(), _READY)
    models = {name: draw(model) for name in TYPES}
    n_tasks = draw(
        st.integers(500, 560) if long_run else st.integers(0, 40)
    )
    n_objects = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    remaining = draw(remaining_sets(n_tasks, seed, long_run))
    window = draw(st.one_of(st.just(n_tasks + 8), st.integers(0, n_tasks + 8)))
    n_workers = draw(st.integers(1, 8))
    need_window = draw(st.booleans())
    # Project every task from the first remaining one on before the
    # drawn set, as an earlier replan of the same row terms would: the
    # drawn set then meets the table that frontier built.
    warm = draw(st.booleans())
    return (models, n_tasks, n_objects, seed, remaining, window, n_workers,
            need_window, warm)


@st.composite
def remaining_sets(draw, n_tasks: int, seed: int, long_run: bool) -> np.ndarray:
    """Remaining task indices (ascending): a random subset (every task on
    long runs), every task from a drawn frontier on, or such a frontier
    less a band of tasks just past it (dispatched out of order) or less
    some of the last tasks (gaps at the tail)."""
    kind = draw(st.sampled_from(("subset", "frontier", "band", "tail")))
    if kind == "subset":
        keep = 1.0 if long_run else draw(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        )
        rng = np.random.default_rng(seed + 1)
        return np.flatnonzero(rng.random(n_tasks) < keep).astype(np.int64)
    lo = draw(st.integers(0, n_tasks))
    tasks = set(range(lo, n_tasks))
    if kind == "band" and lo + 1 < n_tasks:
        hi = min(n_tasks - 1, lo + draw(st.integers(1, 12)))
        tasks -= draw(st.sets(st.integers(lo + 1, hi), min_size=1))
    elif kind == "tail" and lo < n_tasks:
        tail = max(lo, n_tasks - draw(st.integers(1, 12)))
        tasks -= draw(st.sets(st.integers(tail, n_tasks - 1), min_size=1))
    return np.array(sorted(tasks), dtype=np.int64)


def is_suffix(n_tasks: int, remaining: np.ndarray) -> bool:
    """Whether the remaining tasks are every task from the first on."""
    return len(remaining) > 0 and remaining.tolist() == list(range(remaining[0], n_tasks))


def cold_first_rows(csr, remaining: np.ndarray) -> int:
    """How many objects' first remaining access row has no traffic while
    a later remaining row of the object has (counted by a walk over the
    rows)."""
    rows, _ = csr.gather(remaining)
    first_hot: dict[int, bool] = {}
    cold = set()
    for r in rows.tolist():
        o, hot = int(csr.obj[r]), bool(csr.traffic[r])
        if o not in first_hot:
            first_hot[o] = hot
        elif hot and not first_hot[o]:
            cold.add(o)
    return len(cold)


def count_folds(monkeypatch) -> list[int]:
    """Record the row count of every direct fold of the projection
    module from here on."""
    calls: list[int] = []
    fold = demand._fold_rows

    def counted(csr, rows, *args):
        calls.append(len(rows))
        return fold(csr, rows, *args)

    monkeypatch.setattr(demand, "_fold_rows", counted)
    return calls


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


def test_projection_passes_match_scalar_reference(monkeypatch) -> None:
    """Property: both demand scopes, the first-use offsets and the slack
    of both scopes, all read through one frontier pass, match the scalar
    reference bitwise.  The frontier knows each object's first remaining
    row exactly when the remaining tasks are every task from the first
    on; the full scope is then read off the suffix table when every
    remaining task has a ready model (the first such frontier builds the
    table), and the first uses off the next-hot-row column.  Each route
    is taken at least once: the table, the direct fold beside a built
    table (tasks dispatched out of order or gaps at the tail after the
    table's frontier), the next-hot lookup (with an object whose first
    remaining row has no traffic before a later one that has) and the
    first-use scan of the gathered rows."""
    folds = count_folds(monkeypatch)
    routes = Counter()

    ready = {name: (0.1, ((1.0, 2.0, 3.0, 4.0, 0.5, 5.0, 0.25),) * 2) for name in TYPES}
    frontier = np.arange(10, 40, dtype=np.int64)

    @settings(max_examples=160, deadline=None)
    @given(scenarios())
    # Every task from task 10 on, so each object's window rows start at
    # its first remaining row, not its first row; then task 11
    # dispatched early.  In this graph two objects' first remaining rows
    # (task 10) have no traffic, and their next rows (tasks 11 and 12)
    # have.
    @example((ready, 40, 4, 3, frontier, 12, 4, True, False))
    @example((ready, 40, 4, 3, np.delete(frontier, 1), 12, 4, True, True))
    def check(scenario) -> None:
        (models, n_tasks, n_objects, seed, remaining, window, n_workers,
         need_window, warm) = scenario
        graph = build_graph(n_tasks, n_objects, seed, n_tasks >= 500)
        core = graph.exec_core()
        csr = core.accesses
        tasks = tuple(core.tasks[i] for i in remaining.tolist())
        # Per-type durations of the start offsets: the modelless fallback
        # is 1e-4 s.
        durations = {
            name: models[name][0] if models.get(name) is not None else 1e-4
            for name in core.type_names
        }
        front = scan_frontier(
            core, remaining, window,
            np.array([durations[n] for n in core.type_names]), n_workers,
        )
        suffix = is_suffix(n_tasks, remaining)
        assert (front.first is not None) == suffix

        live = {name: StubModel(*m) for name, m in models.items() if m is not None}
        per_type = [live.get(name) for name in core.type_names]
        proj = DemandProjection()
        if warm and len(remaining):
            earlier = np.arange(remaining[0], n_tasks, dtype=np.int64)
            proj.project(
                core, scan_frontier(core, earlier, window, np.ones(4), 1), per_type,
                need_window,
            )

        # Demand projection, both scopes.
        want = demand_stats_split_ref(tasks, window, live.get, need_window)
        folds.clear()
        got = proj.project(core, front, per_type, need_window)
        for (g_batch, g_horizon, g_objs), (w_batch, w_horizon) in zip(got, want):
            assert_batch_bitwise(g_batch, w_batch)
            assert bits(g_horizon) == bits(w_horizon)
            assert csr.obj_uid[g_objs].tolist() == w_batch.uid.tolist()

        # The route: a window fold when the window is a proper prefix,
        # plus the full fold unless the table answered.
        built = proj.suffix_table
        modelled = all(t.type_name in live for t in tasks)
        table = modelled and len(front.rows) > 0 and suffix
        n_window = int(need_window and len(remaining) > window)
        assert len(folds) == n_window + (not table)
        if table:
            assert built is not None
            routes["table"] += 1
        elif built is not None:
            routes["fold beside table"] += 1

        # First-use offsets, both scopes.
        want_fu = first_use_offsets_split_ref(tasks, window, durations, n_workers)
        got_fu = first_use_offsets_split(core, front)
        for g_scope, w_scope in zip(got_fu, want_fu):
            assert offsets_by_uid(csr, g_scope) == [
                (u, bits(o)) for u, o in w_scope.items()
            ]
        if suffix:
            routes["next hot"] += 1
            routes["cold first row"] += cold_first_rows(csr, remaining) > 0
        else:
            routes["first-use scan"] += 1

        # Parallel slack over the full horizon and the window.
        depths = spawn_order_depths(graph)
        for widths, scope in zip(front.widths, (remaining, remaining[:window])):
            # The level widths themselves, in first-occurrence order.
            assert widths == list(
                Counter(depths[core.tasks[i].tid] for i in scope.tolist()).values()
            )
            got_slack = DataManagerPolicy._parallel_slack(widths, n_workers)
            want_slack = parallel_slack_ref(
                tuple(core.tasks[i] for i in scope.tolist()), depths, n_workers
            )
            assert bits(got_slack) == bits(want_slack)

    check()
    assert set(routes) == {
        "table", "fold beside table", "next hot", "cold first row", "first-use scan"
    }, routes


# ----------------------------------------------------------------------
# The fold kernel on its own
# ----------------------------------------------------------------------
_FIELDS = ("loads", "stores", "misses", "bw_demand", "confidence", "mem_seconds", "dram_frac")


def one_access_tasks(objs: list[int], rows: list[tuple[float, ...]]):
    """An access table with one task per row (task ``i`` touches dense
    object ``objs[i]``, objects numbered in first-touch order) and the
    row terms of a model per task whose one slot row is ``rows[i]``."""
    n = len(objs)
    zeros = np.zeros(n)
    csr = AccessCSR(
        indptr=np.arange(n + 1, dtype=np.int64),
        obj=np.array(objs, dtype=np.int64),
        traffic=np.ones(n, dtype=np.bool_),
        miss_loads=zeros, miss_stores=zeros, read_bytes=zeros,
        write_bytes=zeros, mlp=zeros,
        task_rows=(), task_writers=(),
        obj_uid=np.arange(max(objs) + 1, dtype=np.int64) + 1000,
        obj_index={},
        obj_size=np.arange(max(objs) + 1, dtype=np.int64) + 1,
    )
    core = SimpleNamespace(accesses=csr, type_id=np.arange(n, dtype=np.int64))
    terms = DemandProjection().terms_for(core, [StubModel(0.0, (row,)) for row in rows])
    return csr, terms


def folded(rows: list[tuple[float, ...]]) -> tuple[float, ...]:
    acc = list(EMPTY_DEMAND)
    for row in rows:
        fold_row(acc, row)
    return tuple(acc)


def assert_columns_bitwise(got: DemandBatch, want: list[tuple[float, ...]]) -> None:
    for k, name in enumerate(_FIELDS):
        col = getattr(got, name)
        assert col.dtype == np.float64
        assert col.tobytes() == np.array([w[k] for w in want]).tobytes(), name


@st.composite
def segment_sets(draw):
    """A row sequence over a few objects (one of them often hot, so its
    column runs many steps), the rows' slot values, a kept subset of
    the rows (ascending, whose objects partition it into segments) and
    a first row for the per-row suffixes (overlapping segments)."""
    n = draw(st.integers(1, 70))
    n_objects = draw(st.integers(1, 6))
    hot = draw(st.floats(0.0, 0.9))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    raw = np.where(rng.random(n) < hot, 0, rng.integers(0, n_objects, n))
    _, first_touch = np.unique(raw, return_index=True)
    relabel = np.empty(raw.max() + 1, dtype=np.int64)
    relabel[raw[np.sort(first_touch)]] = np.arange(len(first_touch))
    rows = draw(st.lists(_ROW, min_size=n, max_size=n))
    kept = draw(st.one_of(
        st.just(list(range(n))),
        st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(sorted),
    ))
    lo = draw(st.integers(0, n - 1))
    return relabel[raw].tolist(), rows, kept, lo


@settings(max_examples=150, deadline=None)
@given(segment_sets())
def test_fold_kernel_matches_scalar_accumulator(case) -> None:
    """Property: both drivers of the fold kernel match the scalar
    accumulator byte for byte.  The direct fold takes each object's
    kept rows (a partition of the kept rows) as one column; the suffix
    table takes, for every row from the first on, its object's rows
    from that row to the last (overlapping per-row suffixes)."""
    objs, rows, kept, lo = case
    csr, terms = one_access_tasks(objs, rows)

    batch, objects = demand._fold_rows(csr, np.array(kept, dtype=np.int64), terms)
    order = list(dict.fromkeys(objs[r] for r in kept))
    assert objects.tolist() == order
    assert batch.uid.tolist() == [1000 + o for o in order]
    assert_columns_bitwise(
        batch, [folded([rows[r] for r in kept if objs[r] == o]) for o in order]
    )

    col, (totals, means, bw) = demand._suffix_folds(csr, terms, lo)
    c = col[np.arange(len(objs) - lo)]
    table = demand._demand_batch(csr, csr.obj[lo:], totals[:, c], means[c], bw[c])
    assert_columns_bitwise(
        table,
        [
            folded([rows[s] for s in range(r, len(objs)) if objs[s] == objs[r]])
            for r in range(lo, len(objs))
        ],
    )


@pytest.mark.parametrize(
    "workload, overrides",
    [("heat", {"grid": 16, "iterations": 12}), ("cg", {"n_chunks": 16, "iterations": 16})],
)
def test_suffix_build_memory_stays_within_twice_the_table(workload, overrides) -> None:
    """One suffix-table build over every row of a heat-3k or cg-800
    graph peaks, under ``tracemalloc``, at no more than twice the
    table's seven floats per row: the folds go straight into the table,
    a bounded block at a time.  The graph's cached row groupings and
    one earlier build are not counted."""
    core = build_cached(workload, **overrides).graph.exec_core()
    csr = core.accesses
    rng = np.random.default_rng(5)
    models = [
        StubModel(1e-4, tuple(tuple(rng.random(7).tolist()) for _ in range(4)))
        for _ in core.type_names
    ]
    terms = DemandProjection().terms_for(core, models)
    demand._suffix_folds(csr, terms, 0)
    tracemalloc.start()
    try:
        demand._suffix_folds(csr, terms, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 7 * 8 * len(csr.obj)


def test_row_terms_follow_model_and_graph_changes(monkeypatch) -> None:
    """One projection across the events that change its per-row terms: a
    type gaining a model, a model's rows replaced by a new tuple
    (profiling completes), a type losing its model (adaptation archives
    it, later its stale model is read) and a repartitioned graph.  Each
    of them ends the row-term epoch; each epoch builds its suffix table
    at its first frontier with all types modelled, and every later such
    frontier from the table's first row on reads the full scope off it.
    Every projection must still match the scalar reference bitwise, so a
    row-term or suffix table kept past its models or its graph fails."""
    rng = np.random.default_rng(7)
    pool = [
        DataObject(f"p{k}", int(rng.integers(1, 4)) * MIB, partitionable=True)
        for k in range(5)
    ]
    graph = TaskGraph()
    for i in range(80):
        chosen = rng.choice(len(pool), size=int(rng.integers(1, 4)), replace=False)
        accesses = {}
        for k in chosen.tolist():
            mode = MODES[int(rng.integers(0, 3))]
            accesses[pool[k]] = ObjectAccess(
                mode, loads=100 if reads(mode) else 0, stores=50 if writes(mode) else 0
            )
        graph.add(Task(f"t{i}", TYPES[i % len(TYPES)], accesses))

    def slot_rows(seed: int, n_slots: int) -> tuple[tuple[float, ...], ...]:
        r = np.random.default_rng(seed)
        return tuple(tuple(r.random(7).tolist()) for _ in range(n_slots))

    proj = DemandProjection()
    models: dict[str, StubModel] = {}
    folds = count_folds(monkeypatch)

    def check(remaining: np.ndarray, route: str, epoch: str, window: int = 24) -> None:
        core = graph.exec_core()
        tasks = tuple(core.tasks[i] for i in remaining.tolist())
        terms = proj.row_terms
        folds.clear()
        front = scan_frontier(core, remaining, window, np.ones(len(core.type_names)), 1)
        got = proj.project(core, front, [models.get(n) for n in core.type_names], True)
        want = demand_stats_split_ref(tasks, window, models.get)
        for (g_batch, g_horizon, _), (w_batch, w_horizon) in zip(got, want):
            assert_batch_bitwise(g_batch, w_batch)
            assert bits(g_horizon) == bits(w_horizon)
        # The window fold, and the full fold unless the table answered.
        assert len(folds) == {"table": 1, "fold": 2}[route]
        assert (proj.row_terms is terms) == {"same": True, "new": False}[epoch]

    every = np.arange(len(graph))
    a, b = StubModel(0.1, slot_rows(1, 2)), StubModel(0.2, slot_rows(2, 3))
    c = StubModel(0.3, slot_rows(4, 1))
    models.update(a=a, b=b, c=c)
    check(every, "fold", "new")  # "d" has no model yet
    # A type gains a model.
    d = models["d"] = StubModel(0.4, slot_rows(5, 2))
    check(every, "table", "new")
    check(every[10:], "table", "same")
    # Profiling completes: the same model reports a new rows tuple.
    a._rows = slot_rows(3, 2)
    check(every[10:], "table", "new")
    # A frontier before the first row the table covers.
    check(every[5:], "fold", "same")
    # Adaptation archives "b"; later its stale model is read again.
    del models["b"]
    check(every[20:], "fold", "new")
    models["b"] = b
    check(every[20:], "table", "new")

    # The repartitioned graph, with the same model objects.
    partition_graph(graph, MIB // 2)
    check(every, "table", "new")
    check(every[40:], "table", "same")


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
