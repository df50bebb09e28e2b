"""Task graph with dataflow dependence inference.

Tasks are added in program (spawn) order.  Dependences are inferred from
declared accesses exactly as an OpenMP-4.5 ``depend`` clause or OmpSs
would: a reader depends on the last writer (RAW), a writer depends on the
last writer (WAW) and on every reader since (WAR).  Spawn order is thus a
topological order by construction, which the executor and the data
manager's lookahead both exploit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.tasking.access import AccessMode
from repro.tasking.dataobj import DataObject
from repro.tasking.task import Task

__all__ = ["TaskGraph", "GraphExecCore", "AccessCSR"]


@dataclass(frozen=True)
class AccessCSR:
    """Every declared access of a graph as flat arrays (CSR by task).

    Row ``indptr[i]:indptr[i + 1]`` holds task ``i``'s accesses (dense
    spawn-order index, as in :class:`GraphExecCore`) in declaration
    order.  Objects get dense indices in first-touch order over the
    spawn order.  The data manager's per-replan passes (demand
    projection, first-use offsets, parallel slack) gather from these
    arrays instead of walking ``Task`` objects.
    """

    indptr: np.ndarray  #: int64 row pointers (len = n_tasks + 1)
    obj: np.ndarray  #: int64 dense object index per access
    #: int64 per access: how many earlier accesses (spawn order) touch
    #: the same object.
    rank: np.ndarray
    slot: np.ndarray  #: int64 declaration position within its task
    traffic: np.ndarray  #: bool: the access has nonzero counted traffic
    type_id: np.ndarray  #: int64 per task, indexes ``type_names``
    type_names: tuple[str, ...]  #: sorted distinct task type names
    depth: np.ndarray  #: int64 longest-path DAG depth per task (roots 0)
    obj_uid: np.ndarray  #: int64 uid per dense object index
    obj_index: dict[int, int]  #: uid -> dense object index
    obj_size: np.ndarray  #: int64 size in bytes per dense object index

    def gather(self, tasks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Access-row indices of ``tasks`` (dense indices), concatenated
        in the given task order, plus the row count of each task."""
        starts = self.indptr[tasks]
        lens = self.indptr[tasks + 1] - starts
        ends = np.cumsum(lens)
        rows = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
        rows += np.repeat(starts - (ends - lens), lens)
        return rows, lens

    def ranks(self, tasks: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per gathered row (``rows, _ = gather(tasks)``, ``tasks``
        ascending), how many earlier gathered rows touch the same object.

        That is the row's graph-wide :attr:`rank` less the accesses of
        its object by the tasks left out: those before ``tasks[0]`` (a
        per-object count) and those after it (typically a narrow band of
        tasks dispatched out of order), counted per row by a search
        over their sorted ``(object, row)`` keys — no sort over the
        gathered rows themselves.
        """
        if len(tasks) == 0:
            return rows.copy()
        lo = int(tasks[0])
        objs = self.obj[rows]
        before = np.bincount(self.obj[: self.indptr[lo]], minlength=len(self.obj_uid))
        gathered = np.zeros(len(self.type_id) - lo, dtype=np.bool_)
        gathered[tasks - lo] = True
        left_out, _ = self.gather(np.flatnonzero(~gathered) + lo)
        n_rows = len(self.obj)
        keys = np.sort(self.obj[left_out] * n_rows + left_out)
        first_key = objs * n_rows
        skipped = np.searchsorted(keys, first_key + rows) - np.searchsorted(keys, first_key)
        return self.rank[rows] - before[objs] - skipped


@dataclass(frozen=True)
class GraphExecCore:
    """Structure-of-arrays snapshot of a graph for the executor hot loop.

    Tasks get dense indices in spawn order; dependence structure is a CSR
    adjacency (``succ_indptr``/``succ_indices``) with per-task successor
    tuples alongside for cheap small-fanout iteration.  ``indeg0`` holds
    the initial unresolved-dependency count per task — the executor copies
    it and decrements the copy as completions drain.  Rebuilt lazily when
    the graph's structure version moves (same idiom as the other derived-
    query caches).
    """

    tasks: tuple[Task, ...]
    index: dict[int, int]  #: tid -> dense index (spawn order)
    indeg0: np.ndarray  #: int32 initial in-degree per dense index
    succ: tuple[tuple[int, ...], ...]  #: dense successor indices, tid order
    succ_indptr: np.ndarray  #: int32 CSR row pointers (len = n_tasks + 1)
    succ_indices: np.ndarray  #: int32 CSR column indices (tid order per row)

    @cached_property
    def accesses(self) -> AccessCSR:
        """The access CSR, built on first use: only managed runs read it,
        so static-policy runs never pay for it."""
        tasks = self.tasks
        n = len(tasks)
        obj_index: dict[int, int] = {}
        obj_uid: list[int] = []
        obj_size: list[int] = []
        counts: list[int] = []
        objs: list[int] = []
        ranks: list[int] = []
        touches: list[int] = []  # per object, accesses so far
        slots: list[int] = []
        traffic: list[bool] = []
        for t in tasks:
            rows = t.exec_rows()
            counts.append(len(rows))
            for j, (obj, _acc, uid, _writes, has_traffic) in enumerate(rows):
                k = obj_index.get(uid)
                if k is None:
                    k = obj_index[uid] = len(obj_uid)
                    obj_uid.append(uid)
                    obj_size.append(obj.size_bytes)
                    touches.append(0)
                objs.append(k)
                ranks.append(touches[k])
                touches[k] += 1
                slots.append(j)
                traffic.append(has_traffic)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.array(counts, dtype=np.int64), out=indptr[1:])
        type_names = tuple(sorted({t.type_name for t in tasks}))
        type_of = {name: i for i, name in enumerate(type_names)}
        # Longest-path depth in a Kahn order over the successor rows
        # (equal to ``TaskGraph.depths`` whatever the topological order).
        indeg = self.indeg0.tolist()
        depth = [0] * n
        ready = [i for i in range(n) if indeg[i] == 0]
        for i in ready:
            d = depth[i] + 1
            for s in self.succ[i]:
                if depth[s] < d:
                    depth[s] = d
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        return AccessCSR(
            indptr=indptr,
            obj=np.array(objs, dtype=np.int64),
            rank=np.array(ranks, dtype=np.int64),
            slot=np.array(slots, dtype=np.int64),
            traffic=np.array(traffic, dtype=np.bool_),
            type_id=np.array([type_of[t.type_name] for t in tasks], dtype=np.int64),
            type_names=type_names,
            depth=np.array(depth, dtype=np.int64),
            obj_uid=np.array(obj_uid, dtype=np.int64),
            obj_index=obj_index,
            obj_size=np.array(obj_size, dtype=np.int64),
        )


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
        # Monotonic structure version; every mutation bumps it and the
        # derived-query caches below revalidate against it.  The executor
        # asks for successors/objects/topological order in its inner loop,
        # and rebuilding those per call dominated the graph-side profile.
        self._version = 0
        self._succ_cache: dict[int, list[Task]] = {}
        self._pred_cache: dict[int, list[Task]] = {}
        self._objects_cache: list[DataObject] | None = None
        self._topo_cache: list[Task] | None = None
        self._depths_cache: dict[int, int] | None = None
        self._exec_core_cache: GraphExecCore | None = None
        self._cache_version = -1

    def invalidate_caches(self) -> None:
        """Bump the structure version (for external in-place transforms
        such as partitioning, which rewrite ``_objects`` directly)."""
        self._version += 1

    def _caches(self) -> "TaskGraph":
        """Reset derived-query caches if the structure moved on."""
        if self._cache_version != self._version:
            self._succ_cache.clear()
            self._pred_cache.clear()
            self._objects_cache = None
            self._topo_cache = None
            self._depths_cache = None
            self._exec_core_cache = None
            self._cache_version = self._version
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, task: Task) -> Task:
        """Append a task and infer its incoming dependences.

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
        add_pred = preds.add
        # Localized hot loop: graph build is most of a cold spec's set-up
        # cost.  Mode predicates are identity checks (what the enum
        # properties compute).  Predecessors are collected in edge order
        # (RAW/WAW on the last writer, then WAR on the readers since), so
        # the sets fill in the same order as per-edge insertion would.
        objects = self._objects
        last_writer = self._last_writer
        readers_since = self._readers_since_write
        read_mode = AccessMode.READ
        write_mode = AccessMode.WRITE
        for obj, access in task.accesses.items():
            uid = obj.uid
            if uid not in objects:
                objects[uid] = obj
            if not access.infer_deps:
                continue
            mode = access.mode
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
        preds.discard(tid)
        for p in preds:
            succ[p].add(tid)
        return task

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

    def extend(self, tasks: Iterable[Task]) -> None:
        for t in tasks:
            self.add(t)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def task(self, tid: int) -> Task:
        return self._by_tid[tid]

    def successors(self, task: Task) -> list[Task]:
        """Successor tasks in tid order.  The list is cached per tid until
        the next graph mutation — callers must not mutate it."""
        cache = self._caches()._succ_cache
        succ = cache.get(task.tid)
        if succ is None:
            succ = cache[task.tid] = [
                self._by_tid[t] for t in sorted(self._succ[task.tid])
            ]
        return succ

    def predecessors(self, task: Task) -> list[Task]:
        """Predecessor tasks in tid order (cached like :meth:`successors`)."""
        cache = self._caches()._pred_cache
        pred = cache.get(task.tid)
        if pred is None:
            pred = cache[task.tid] = [
                self._by_tid[t] for t in sorted(self._pred[task.tid])
            ]
        return pred

    def in_degree(self, task: Task) -> int:
        return len(self._pred[task.tid])

    @property
    def objects(self) -> list[DataObject]:
        """All data objects touched by any task, in first-touch order.
        Cached until the next graph mutation; callers must not mutate it."""
        objs = self._caches()._objects_cache
        if objs is None:
            objs = self._objects_cache = list(self._objects.values())
        return objs

    def total_object_bytes(self) -> int:
        return sum(o.size_bytes for o in self._objects.values())

    def exec_core(self) -> GraphExecCore:
        """The SoA execution core for this graph (cached per version).

        Successor rows are in tid order, matching :meth:`successors`, so
        the executor's completion drain enables tasks in the same order
        whichever representation it walks.
        """
        core = self._caches()._exec_core_cache
        if core is not None:
            return core
        tasks = tuple(self.tasks)
        index = {t.tid: i for i, t in enumerate(tasks)}
        n = len(tasks)
        indeg0 = np.fromiter(
            (len(self._pred[t.tid]) for t in tasks), dtype=np.int32, count=n
        )
        succ = tuple(
            tuple(index[s] for s in sorted(self._succ[t.tid])) for t in tasks
        )
        indptr = np.zeros(n + 1, dtype=np.int32)
        for i, row in enumerate(succ):
            indptr[i + 1] = indptr[i] + len(row)
        indices = np.fromiter(
            (s for row in succ for s in row), dtype=np.int32, count=int(indptr[-1])
        )
        core = GraphExecCore(
            tasks=tasks,
            index=index,
            indeg0=indeg0,
            succ=succ,
            succ_indptr=indptr,
            succ_indices=indices,
        )
        self._exec_core_cache = core
        return core

    def roots(self) -> list[Task]:
        return [t for t in self.tasks if not self._pred[t.tid]]

    def tasks_using(self, obj: DataObject) -> list[Task]:
        return [t for t in self.tasks if obj in t.accesses]

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Task]:
        """Kahn topological order (equals spawn order for well-formed use,
        but recomputed here for validation).  Cached until the next graph
        mutation; callers must not mutate the returned list."""
        topo = self._caches()._topo_cache
        if topo is not None:
            return topo
        indeg = {t.tid: len(self._pred[t.tid]) for t in self.tasks}
        ready = [t for t in self.tasks if indeg[t.tid] == 0]
        order: list[Task] = []
        i = 0
        ready.sort(key=lambda t: t.tid)
        while i < len(ready):
            t = ready[i]
            i += 1
            order.append(t)
            for s in sorted(self._succ[t.tid]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(self._by_tid[s])
        if len(order) != len(self.tasks):
            raise ValueError("task graph contains a cycle")
        self._topo_cache = order
        return order

    def critical_path(self, duration: Callable[[Task], float]) -> tuple[float, list[Task]]:
        """Longest path through the DAG under ``duration`` (ignores worker
        and memory constraints; a lower bound on any makespan)."""
        finish: dict[int, float] = {}
        best_pred: dict[int, int | None] = {}
        for t in self.topological_order():
            preds = self._pred[t.tid]
            if preds:
                p = max(preds, key=lambda p: finish[p])
                start = finish[p]
                best_pred[t.tid] = p
            else:
                start = 0.0
                best_pred[t.tid] = None
            finish[t.tid] = start + duration(t)
        if not finish:
            return 0.0, []
        end_tid = max(finish, key=lambda k: finish[k])
        path = []
        cur: int | None = end_tid
        while cur is not None:
            path.append(self._by_tid[cur])
            cur = best_pred[cur]
        return finish[end_tid], list(reversed(path))

    def depths(self) -> dict[int, int]:
        """Longest-path depth of every task (roots at 0).  Cached until
        the next graph mutation."""
        cached = self._caches()._depths_cache
        if cached is not None:
            return cached
        depths: dict[int, int] = {}
        for t in self.topological_order():
            preds = self._pred[t.tid]
            depths[t.tid] = 1 + max((depths[p] for p in preds), default=-1)
        self._depths_cache = depths
        return depths

    def bottom_levels(self, duration: Callable[[Task], float]) -> dict[int, float]:
        """Length of the longest downward path from each task (HEFT rank)."""
        levels: dict[int, float] = {}
        for t in reversed(self.topological_order()):
            succs = self._succ[t.tid]
            tail = max((levels[s] for s in succs), default=0.0)
            levels[t.tid] = duration(t) + tail
        return levels

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (nodes are tids)."""
        import networkx as nx

        g = nx.DiGraph()
        for t in self.tasks:
            g.add_node(t.tid, task=t)
        for tid, succs in self._succ.items():
            for s in succs:
                g.add_edge(tid, s)
        return g

    def validate(self) -> None:
        """Check DAG invariants (acyclicity, edge symmetry)."""
        self.topological_order()
        for tid, succs in self._succ.items():
            for s in succs:
                assert tid in self._pred[s], "edge tables out of sync"
