"""Task graph with dataflow dependence inference.

Tasks are added in program (spawn) order.  Dependences are inferred from
declared accesses exactly as an OpenMP-4.5 ``depend`` clause or OmpSs
would: a reader depends on the last writer (RAW), a writer depends on the
last writer (WAW) and on every reader since (WAR).  Spawn order is thus a
topological order by construction, which the executor and the data
manager's lookahead both exploit.

Everything derived from a graph's structure lives in one place: the
:class:`GraphExecCore` snapshot that :meth:`TaskGraph.exec_core` rebuilds
whenever the graph mutates.  No other module caches per-graph state.

A task's ``accesses`` are walked once, when it is added: the same loop
that infers its dependences appends its rows to the access table.  So a
task's ``accesses`` are fixed once it is in a graph; the one rewrite is
:meth:`TaskGraph.repartition`, which rebuilds the rows through that loop.
"""

from __future__ import annotations

from collections import defaultdict
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.task import Task

__all__ = ["TaskGraph", "GraphExecCore", "AccessCSR"]


@dataclass(frozen=True)
class AccessCSR:
    """Every declared access of a graph as flat columns (CSR by task).

    Row ``indptr[i]:indptr[i + 1]`` holds task ``i``'s accesses (dense
    spawn-order index, as in :class:`GraphExecCore`) in declaration
    order.  Objects get dense indices in first-touch order over the
    spawn order.  :meth:`TaskGraph.add` appends the rows as it infers
    dependences (see :class:`_AccessRows`); the snapshot only turns the
    finished buffers into arrays.  Two readers share the table: the
    executor (the timing-law operands, the per-task rows its dispatch
    loop walks, and the traffic columns energy accounting gathers) and
    the data manager's per-replan passes (demand projection, first-use
    offsets), which gather from the arrays instead of walking ``Task``
    objects.  Columns only the manager reads are derived on first use.
    """

    indptr: np.ndarray  #: int64 row pointers (len = n_tasks + 1)
    obj: np.ndarray  #: int64 dense object index per access
    traffic: np.ndarray  #: bool: the access has nonzero counted traffic
    #: float64 per access, the operands of the two timing laws
    #: (``ObjectAccess.miss_loads``/``miss_stores``/``read_traffic_bytes``
    #: /``write_traffic_bytes`` and the pattern's MLP).
    miss_loads: np.ndarray
    miss_stores: np.ndarray
    read_bytes: np.ndarray
    write_bytes: np.ndarray
    mlp: np.ndarray
    #: Per task, one ``(uid, writes, has_traffic)`` row per access, in row
    #: order, interned per graph (an equal row is one shared tuple holding
    #: the object's own uid): what the dispatch loop walks.
    task_rows: tuple[tuple[tuple[int, bool, bool], ...], ...]
    #: Per task, the uids of its traffic accesses that write (dirty bits).
    task_writers: tuple[tuple[int, ...], ...]
    obj_uid: np.ndarray  #: int64 uid per dense object index
    obj_index: dict[int, int]  #: uid -> dense object index
    obj_size: np.ndarray  #: int64 size in bytes per dense object index

    @cached_property
    def slot(self) -> np.ndarray:
        """int64 declaration position of each access within its task."""
        starts = self.indptr[:-1]
        return np.arange(len(self.obj), dtype=np.int64) - np.repeat(
            starts, np.diff(self.indptr)
        )

    @cached_property
    def _by_object(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows grouped by object: the row indices sorted by
        ``(object, row)``, where each object's group starts among them,
        and each access's rank (how many earlier accesses, in spawn
        order, touch its object)."""
        n = len(self.obj)
        grouped = np.sort(self.obj * n + np.arange(n, dtype=np.int64)) % n
        starts = np.zeros(len(self.obj_uid) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.obj, minlength=len(self.obj_uid)), out=starts[1:])
        rank = np.empty(n, dtype=np.int64)
        rank[grouped] = np.arange(n, dtype=np.int64) - np.repeat(starts[:-1], np.diff(starts))
        return grouped, starts, rank

    @cached_property
    def _chain(self) -> tuple[np.ndarray, np.ndarray]:
        """Per access, the previous access of its object in spawn order
        (``-1`` for the object's first) and the number of the object's
        accesses from it to the last, both included; read off
        :attr:`_by_object`."""
        grouped, starts, rank = self._by_object
        prev = np.empty(len(self.obj), dtype=np.int64)
        prev[grouped[1:]] = grouped[:-1]
        prev[rank == 0] = -1
        return prev, np.diff(starts)[self.obj] - rank

    @cached_property
    def _next_hot(self) -> tuple[np.ndarray, np.ndarray]:
        """Per access, the first access of its object from it on (itself
        included, in spawn order) with nonzero traffic, or ``len(obj)``
        when none has; read off :attr:`_by_object`.  An access with
        traffic is its own answer, so only the others are kept: their
        row indices, ascending, and the answer for each."""
        n = len(self.obj)
        cold = np.flatnonzero(~self.traffic)
        if len(cold) == 0:
            return cold, cold
        grouped, starts, rank = self._by_object
        objs = self.obj[cold]
        # Over the grouped rows: the first hot position after each cold
        # row's own, then the row there when it lies inside the cold
        # row's object group.
        hot_at = np.flatnonzero(self.traffic[grouped])
        at = np.append(hot_at, n)[hot_at.searchsorted(starts[objs] + rank[cold])]
        hot = np.append(grouped, n)[at]
        hot[at >= starts[objs + 1]] = n
        return cold, hot

    def gather(self, tasks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Access-row indices of ``tasks`` (dense indices), concatenated
        in the given task order, plus the row count of each task."""
        starts = self.indptr[tasks]
        lens = self.indptr[tasks + 1] - starts
        ends = np.cumsum(lens)
        rows = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
        rows += np.repeat(starts - (ends - lens), lens)
        return rows, lens


class _AccessRows:
    """The access table's buffers, one row per declared access.

    :meth:`TaskGraph.add` appends a task's rows in the loop that infers
    its dependences.  A row is the access's dense object index (assigned
    at first touch) and its footprint index: distinct
    :class:`ObjectAccess` instances get one entry each in a small
    per-graph table, keyed by identity, so every per-access value is
    read from that table by one fancy index when the snapshot asks for
    the :class:`AccessCSR`.  :meth:`freeze` turns the buffers into the
    table's arrays for a snapshot; an append after that works on a copy,
    so a snapshot never sees a later task and a finished graph holds one
    set of arrays, not the arrays and their lists.
    """

    __slots__ = (
        "obj", "fp", "indptr", "task_rows", "task_writers", "obj_index",
        "obj_uid", "obj_size", "footprints", "fp_of", "row_of", "frozen",
    )

    def __init__(self) -> None:
        self.obj: list[int] | np.ndarray = []  #: dense object index per row
        self.fp: list[int] | np.ndarray = []  #: footprint index per row
        self.indptr: list[int] | np.ndarray = [0]  #: row count after each task
        self.task_rows: list | tuple = []
        self.task_writers: list | tuple = []
        self.obj_index: dict[int, int] = {}  #: uid -> dense object index
        self.obj_uid: list[int] | np.ndarray = []
        self.obj_size: list[int] | np.ndarray = []
        #: Distinct footprints in first-use order; holding them keeps
        #: their ids (the keys of ``fp_of``) from being reused.
        self.footprints: list[ObjectAccess] = []
        #: id(footprint) -> (footprint index, writes, has traffic,
        #: dependence mode or ``None`` when inference skips it).
        self.fp_of: dict[int, tuple[int, bool, bool, AccessMode | None]] = {}
        #: Each distinct row of ``task_rows``, keyed by itself (interning).
        self.row_of: dict[tuple[int, bool, bool], tuple[int, bool, bool]] = {}
        self.frozen = False

    def __copy__(self) -> "_AccessRows":
        """Appendable buffers holding the rows of these frozen ones (what
        :meth:`TaskGraph._append` works on once a snapshot took them)."""
        new = _AccessRows()
        new.obj = self.obj.tolist()
        new.fp = self.fp.tolist()
        new.indptr = self.indptr.tolist()
        new.task_rows = list(self.task_rows)
        new.task_writers = list(self.task_writers)
        new.obj_index = dict(self.obj_index)
        new.obj_uid = self.obj_uid.tolist()
        new.obj_size = self.obj_size.tolist()
        new.footprints = list(self.footprints)
        new.fp_of = dict(self.fp_of)
        new.row_of = dict(self.row_of)
        return new

    def footprint(self, access: ObjectAccess) -> tuple[int, bool, bool, AccessMode | None]:
        """Enter ``access`` in the footprint table (first use)."""
        mode = access.mode
        entry = self.fp_of[id(access)] = (
            len(self.footprints),
            mode is not AccessMode.READ,
            access.accesses > 0,
            mode if access.infer_deps else None,
        )
        self.footprints.append(access)
        return entry

    def freeze(self) -> None:
        """Replace the buffers by the table's arrays (idempotent)."""
        if self.frozen:
            return
        i64 = np.int64
        self.obj = np.array(self.obj, dtype=i64)
        # Kept only as gather indices: the narrowest dtype that holds them.
        self.fp = np.array(self.fp, dtype=np.min_scalar_type(len(self.footprints)))
        self.indptr = np.array(self.indptr, dtype=i64)
        self.task_rows = tuple(self.task_rows)
        self.task_writers = tuple(self.task_writers)
        self.obj_uid = np.array(self.obj_uid, dtype=i64)
        self.obj_size = np.array(self.obj_size, dtype=i64)
        self.frozen = True

    def table(self) -> AccessCSR:
        """The :class:`AccessCSR` of frozen rows: the per-footprint
        values, one row per column, gathered onto the access rows by one
        fancy index per dtype (``np.take`` keeps each column contiguous)."""
        fps = self.footprints
        traffic = np.take(np.array([a.accesses > 0 for a in fps], dtype=np.bool_), self.fp)
        values = np.take(
            np.array(
                [
                    [a.miss_loads for a in fps],
                    [a.miss_stores for a in fps],
                    [a.read_traffic_bytes for a in fps],
                    [a.write_traffic_bytes for a in fps],
                    [a.pattern.mlp for a in fps],
                ],
                dtype=np.float64,
            ),
            self.fp,
            axis=1,
        )
        return AccessCSR(
            indptr=self.indptr,
            obj=self.obj,
            traffic=traffic,
            miss_loads=values[0],
            miss_stores=values[1],
            read_bytes=values[2],
            write_bytes=values[3],
            mlp=values[4],
            task_rows=self.task_rows,
            task_writers=self.task_writers,
            obj_uid=self.obj_uid,
            obj_index=self.obj_index,
            obj_size=self.obj_size,
        )


@dataclass(frozen=True)
class GraphExecCore:
    """Snapshot of one graph version: the home of every derived table.

    Tasks get dense indices in spawn order, with per-task successor
    tuples (tid order) and the initial unresolved-dependency count per
    task in ``indeg0`` — the executor copies it and decrements the copy
    as completions drain.  Everything else — the access table, Kahn
    order, depths, task types, the uid -> object map and the initial
    DRAM sets — is derived on first use and lives as long as the
    snapshot: :meth:`TaskGraph.exec_core` builds a new one when the
    graph mutates, so nothing here can go stale.
    """

    tasks: tuple[Task, ...]
    index: dict[int, int]  #: tid -> dense index (spawn order)
    indeg0: np.ndarray  #: int32 initial in-degree per dense index
    succ: tuple[tuple[int, ...], ...]  #: dense successor indices, tid order
    objects: tuple[DataObject, ...]  #: every registered object, first-touch order
    #: The graph's frozen access rows at this version.
    _rows: _AccessRows = field(repr=False, compare=False)
    _initial_sets: dict[int, tuple[DataObject, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def accesses(self) -> AccessCSR:
        """The access table (the rows :meth:`TaskGraph.add` appended)."""
        return self._rows.table()

    @cached_property
    def by_uid(self) -> dict[int, DataObject]:
        """uid -> registered object."""
        return {o.uid: o for o in self.objects}

    @cached_property
    def topo(self) -> tuple[int, ...]:
        """Kahn order as dense indices: roots in tid order, then each
        task as its last predecessor leaves the queue."""
        indeg = self.indeg0.tolist()
        tids = [t.tid for t in self.tasks]
        order = sorted((i for i, d in enumerate(indeg) if not d), key=tids.__getitem__)
        succ = self.succ
        for i in order:
            for s in succ[i]:
                indeg[s] -= 1
                if not indeg[s]:
                    order.append(s)
        if len(order) != len(indeg):
            raise ValueError("task graph contains a cycle")
        return tuple(order)

    @cached_property
    def depth(self) -> np.ndarray:
        """int64 longest-path DAG depth per task (roots 0)."""
        depth = [0] * len(self.tasks)
        succ = self.succ
        for i in self.topo:
            d = depth[i] + 1
            for s in succ[i]:
                if depth[s] < d:
                    depth[s] = d
        return np.array(depth, dtype=np.int64)

    @cached_property
    def _by_depth(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tasks grouped by depth: ``depth * n_tasks + task`` for
        every task, sorted, then per depth its base ``depth * n_tasks``
        and where its group ends among the keys."""
        n = len(self.tasks)
        keys = np.sort(self.depth * n + np.arange(n, dtype=np.int64))
        base = np.arange(int(self.depth.max(initial=-1)) + 1, dtype=np.int64) * n
        return keys, base, np.searchsorted(keys, base + n)

    @cached_property
    def type_names(self) -> tuple[str, ...]:
        """Sorted distinct task type names."""
        return tuple(sorted({t.type_name for t in self.tasks}))

    @cached_property
    def type_id(self) -> np.ndarray:
        """int64 per task, indexes :attr:`type_names`."""
        type_of = {name: i for i, name in enumerate(self.type_names)}
        return np.array([type_of[t.type_name] for t in self.tasks], dtype=np.int64)

    def initial_dram_objects(self, capacity_bytes: int) -> tuple[DataObject, ...]:
        """The objects :func:`repro.core.initial.initial_placement` puts
        in a DRAM of ``capacity_bytes``, in graph order.  A pure function
        of the object list and the budget, kept per capacity: runs on an
        interned graph share it."""
        chosen = self._initial_sets.get(capacity_bytes)
        if chosen is None:
            from repro.core.initial import initial_placement

            uids = initial_placement(self.objects, capacity_bytes)
            chosen = tuple(o for o in self.objects if o.uid in uids)
            self._initial_sets[capacity_bytes] = chosen
        return chosen


class TaskGraph:
    """A DAG of tasks built incrementally in program order."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self._succ: dict[int, set[int]] = defaultdict(set)
        self._pred: dict[int, set[int]] = defaultdict(set)
        self._by_tid: dict[int, Task] = {}
        # Dataflow state for incremental dependence inference.
        self._last_writer: dict[int, Task] = {}
        self._readers_since_write: dict[int, list[Task]] = defaultdict(list)
        # Object registry in first-touch order.
        self._objects: dict[int, DataObject] = {}
        # Access-table rows, appended by add (see _append).
        self._rows = _AccessRows()
        # Monotonic structure version: every mutation bumps it, and
        # exec_core() rebuilds its snapshot when it moved.
        self._version = 0
        self._core: tuple[int, GraphExecCore] | None = None
        # Chunk size of the last partitioning pass (see repartition).
        self._partitioned_at: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, task: Task) -> Task:
        """Append a task, infer its incoming dependences and append its
        access-table rows, in one walk over its accesses (:meth:`_append`).

        Only the edge sets are kept: which accesses induced an edge, and
        of which kind, is never read back, so no per-edge record exists.
        """
        tid = task.tid
        if tid in self._by_tid:
            raise ValueError(f"task {tid} already in graph")
        self._version += 1
        self.tasks.append(task)
        self._by_tid[tid] = task
        succ = self._succ
        succ.setdefault(tid, set())
        preds = self._pred[tid]
        self._append(task, preds)
        preds.discard(tid)
        for p in preds:
            succ[p].add(tid)
        return task

    def _append(self, task: Task, preds: set[int] | None) -> None:
        """The one walk over ``task``'s accesses: append its access-table
        rows and, given its predecessor set ``preds``, infer its incoming
        dependences into it (``None``: rows only, for repartition).

        Localized hot loop: graph build is most of a cold spec's set-up
        cost.  A footprint's row values, write flag and dependence mode
        are looked up once per distinct instance (``rows.fp_of``).
        Predecessors are collected in edge order (RAW/WAW on the last
        writer, then WAR on the readers since), so the sets fill in the
        same order as per-edge insertion would.
        """
        rows = self._rows
        if rows.frozen:
            rows = self._rows = copy(rows)
        obj_index = rows.obj_index
        fp_of = rows.fp_of
        obj_append = rows.obj.append
        fp_append = rows.fp.append
        objects = self._objects
        last_writer = self._last_writer
        readers_since = self._readers_since_write
        read_mode = AccessMode.READ
        write_mode = AccessMode.WRITE
        add_pred = preds.add if preds is not None else None
        row_of = rows.row_of
        task_rows: list[tuple[int, bool, bool]] = []
        writers: list[int] = []
        for obj, access in task.accesses.items():
            uid = obj.uid
            k = obj_index.get(uid)
            if k is None:
                k = obj_index[uid] = len(rows.obj_uid)
                rows.obj_uid.append(uid)
                rows.obj_size.append(obj.size_bytes)
                objects.setdefault(uid, obj)
            entry = fp_of.get(id(access))
            if entry is None:
                entry = rows.footprint(access)
            f, writes, has_traffic, mode = entry
            obj_append(k)
            fp_append(f)
            row = (uid, writes, has_traffic)
            task_rows.append(row_of.setdefault(row, row))
            if has_traffic and writes:
                writers.append(uid)
            if mode is None or add_pred is None:
                continue
            lw = last_writer.get(uid)
            if lw is not None:
                add_pred(lw.tid)
            if mode is read_mode:
                readers_since[uid].append(task)
                continue
            for reader in readers_since[uid]:
                add_pred(reader.tid)
            last_writer[uid] = task
            readers_since[uid] = [] if mode is write_mode else [task]
        rows.indptr.append(len(rows.obj))
        rows.task_rows.append(tuple(task_rows))
        rows.task_writers.append(tuple(writers))

    def add_edge(self, src: Task, dst: Task) -> None:
        """Manually declare ``src`` -> ``dst`` ordering.

        Used with ``infer_deps=False`` accesses, where the workload knows
        the fine-grained (span-level) conflicts better than object-level
        inference.  ``dst`` must have been spawned after ``src``.
        """
        if src.tid not in self._by_tid or dst.tid not in self._by_tid:
            raise KeyError("both tasks must already be in the graph")
        if dst.tid <= src.tid:
            raise ValueError("manual edges must point forward in spawn order")
        if dst.tid not in self._succ[src.tid]:
            self._version += 1
            self._succ[src.tid].add(dst.tid)
            self._pred[dst.tid].add(src.tid)

    @property
    def partitioned_at(self) -> int | None:
        """Chunk size of the last :meth:`repartition` (``None``: never)."""
        return self._partitioned_at

    def repartition(
        self,
        chunk_bytes: int,
        chunks: dict[int, list[DataObject]],
        accesses: dict[int, dict[DataObject, ObjectAccess]],
    ) -> None:
        """Install a partitioning pass (see
        :func:`repro.core.partition.partition_graph`): each split object
        (by uid) gives way to its ``chunks`` in the object registry, each
        rewritten task (by tid) gets its new access map, and the graph is
        marked as partitioned at ``chunk_bytes``.  Dependence edges are
        left as they are."""
        for tid, new_accesses in accesses.items():
            self._by_tid[tid].accesses = new_accesses
        for uid, parts in chunks.items():
            del self._objects[uid]
            for chunk in parts:
                self._objects[chunk.uid] = chunk
        self._partitioned_at = chunk_bytes
        if chunks:
            self._version += 1
            self._rows = _AccessRows()
            for task in self.tasks:
                self._append(task, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    @property
    def objects(self) -> list[DataObject]:
        """All data objects touched by any task, in first-touch order."""
        return list(self._objects.values())

    def access_totals(self) -> dict[int, float]:
        """uid -> declared accesses (loads + stores) summed over every
        task, read off the access rows: each footprint's count, summed
        per object in float64 (exact for integer totals below 2**53)."""
        rows = self._rows
        counts = np.array([a.accesses for a in rows.footprints], dtype=np.float64)
        totals = np.bincount(
            np.asarray(rows.obj, dtype=np.int64),
            weights=counts[np.asarray(rows.fp, dtype=np.int64)],
            minlength=len(rows.obj_uid),
        )
        return dict(zip(np.asarray(rows.obj_uid).tolist(), totals.tolist()))

    def total_object_bytes(self) -> int:
        return sum(o.size_bytes for o in self._objects.values())

    def exec_core(self) -> GraphExecCore:
        """The snapshot of the current graph version (rebuilt when the
        graph has mutated since the last call).

        Successor rows are in tid order, so the executor's completion
        drain enables a finished task's successors in tid order.
        """
        cached = self._core
        if cached is not None and cached[0] == self._version:
            return cached[1]
        tasks = tuple(self.tasks)
        index = {t.tid: i for i, t in enumerate(tasks)}
        rows = self._rows
        rows.freeze()
        core = GraphExecCore(
            tasks=tasks,
            index=index,
            indeg0=np.fromiter(
                (len(self._pred[t.tid]) for t in tasks), dtype=np.int32, count=len(tasks)
            ),
            succ=tuple(
                tuple(index[s] for s in sorted(self._succ[t.tid])) for t in tasks
            ),
            objects=tuple(self._objects.values()),
            _rows=rows,
        )
        self._core = (self._version, core)
        return core

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Task]:
        """Kahn topological order (equals spawn order for well-formed use,
        but recomputed here for validation)."""
        core = self.exec_core()
        return [core.tasks[i] for i in core.topo]

    def bottom_levels(self, duration: Callable[[Task], float]) -> dict[int, float]:
        """Length of the longest downward path from each task (HEFT rank)."""
        levels: dict[int, float] = {}
        for t in reversed(self.topological_order()):
            succs = self._succ[t.tid]
            tail = max((levels[s] for s in succs), default=0.0)
            levels[t.tid] = duration(t) + tail
        return levels

    def validate(self) -> None:
        """Check DAG invariants (acyclicity, edge symmetry)."""
        self.topological_order()
        for tid, succs in self._succ.items():
            for s in succs:
                assert tid in self._pred[s], "edge tables out of sync"
