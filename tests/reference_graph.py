"""Record-keeping reference dependence inference for differential testing.

This is the inference :class:`repro.tasking.graph.TaskGraph` ran before
it stopped recording edges: every inferred edge appended a
:class:`Dependence` carrying its kind (RAW/WAW/WAR) and the object that
induced it, and manual edges appended a RAW record on a sentinel object.
The production graph keeps only the successor/predecessor sets;
``tests/test_tasking_graph.py`` drives both over Hypothesis-generated
access programs and compares every task's edges, and its kind tests
read the kinds recorded here.

It also keeps the two walks over every task's ``accesses`` that graph
construction ran before :meth:`TaskGraph.add` appended the access-table
rows itself: :func:`reference_access_table` (the retired
``AccessCSR.build``) and :func:`reference_static_refs` (the retired
body of ``finalize_static_refs``).  The access-table differential in
``tests/test_tasking_graph.py`` compares against both.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.graph import AccessCSR, TaskGraph
from repro.tasking.task import Task

from tests.helpers import reads, writes

__all__ = [
    "Dependence",
    "DependenceKind",
    "ReferenceGraph",
    "merge_accesses",
    "reference_access_table",
    "reference_static_refs",
]


def merge_accesses(a: ObjectAccess, b: ObjectAccess) -> ObjectAccess:
    """Combine two footprints on the same object into one.

    The differential's access programs may name an object twice in one
    task; the merged mode is the union of the two dependence modes and
    the pattern is taken from the footprint with more traffic.
    """
    mode = a.mode if a.mode is b.mode else AccessMode.READWRITE
    pattern = a.pattern if a.accesses >= b.accesses else b.pattern
    if a.span is not None and b.span is not None:
        span = (min(a.span[0], b.span[0]), max(a.span[1], b.span[1]))
    else:
        span = None
    return ObjectAccess(
        mode=mode,
        loads=a.loads + b.loads,
        stores=a.stores + b.stores,
        pattern=pattern,
        span=span,
        infer_deps=a.infer_deps or b.infer_deps,
    )


class DependenceKind(enum.Enum):
    RAW = "raw"  #: read-after-write (true dependence)
    WAW = "waw"  #: write-after-write (output dependence)
    WAR = "war"  #: write-after-read (anti dependence)


@dataclass(frozen=True)
class Dependence:
    src: Task
    dst: Task
    kind: DependenceKind
    obj: DataObject


class ReferenceGraph:
    """Dependence inference with one record per inferred edge."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.succ: dict[int, set[int]] = defaultdict(set)
        self.pred: dict[int, set[int]] = defaultdict(set)
        self.dependences: list[Dependence] = []
        self._last_writer: dict[int, Task] = {}
        self._readers_since_write: dict[int, list[Task]] = defaultdict(list)

    def add(self, task: Task) -> Task:
        self.tasks.append(task)
        self.succ.setdefault(task.tid, set())
        self.pred.setdefault(task.tid, set())
        for obj, access in task.accesses.items():
            if not access.infer_deps:
                continue
            uid = obj.uid
            if reads(access.mode):
                lw = self._last_writer.get(uid)
                if lw is not None:
                    self._add_edge(lw, task, DependenceKind.RAW, obj)
            if writes(access.mode):
                lw = self._last_writer.get(uid)
                if lw is not None:
                    self._add_edge(lw, task, DependenceKind.WAW, obj)
                for reader in self._readers_since_write[uid]:
                    if reader is not task:
                        self._add_edge(reader, task, DependenceKind.WAR, obj)
                self._last_writer[uid] = task
                self._readers_since_write[uid] = []
            if reads(access.mode):
                self._readers_since_write[uid].append(task)
        return task

    def _add_edge(self, src: Task, dst: Task, kind: DependenceKind, obj: DataObject) -> None:
        if src is dst:
            return
        self.succ[src.tid].add(dst.tid)
        self.pred[dst.tid].add(src.tid)
        self.dependences.append(Dependence(src, dst, kind, obj))

    def add_edge(self, src: Task, dst: Task, obj: DataObject | None = None) -> None:
        """A manual edge, recorded as RAW on ``obj`` (or the first object
        ``src`` touches)."""
        sentinel = obj if obj is not None else next(iter(src.accesses), None)
        self.succ[src.tid].add(dst.tid)
        self.pred[dst.tid].add(src.tid)
        if sentinel is not None:
            self.dependences.append(Dependence(src, dst, DependenceKind.RAW, sentinel))

    def kinds(self) -> set[DependenceKind]:
        return {d.kind for d in self.dependences}


def reference_access_table(tasks: tuple[Task, ...]) -> AccessCSR:
    """The access table by one walk over every task's ``accesses``, in
    spawn order, one Python list per column."""
    obj_index: dict[int, int] = {}
    obj_uid: list[int] = []
    obj_size: list[int] = []
    counts: list[int] = []
    objs: list[int] = []
    traffic_l: list[bool] = []
    miss_loads: list[float] = []
    miss_stores: list[float] = []
    read_bytes: list[float] = []
    write_bytes: list[float] = []
    mlps: list[float] = []
    task_rows: list[tuple[tuple[int, bool, bool], ...]] = []
    task_writers: list[tuple[int, ...]] = []
    for t in tasks:
        rows: list[tuple[int, bool, bool]] = []
        writers: list[int] = []
        for obj, acc in t.accesses.items():
            uid = obj.uid
            k = obj_index.get(uid)
            if k is None:
                k = obj_index[uid] = len(obj_uid)
                obj_uid.append(uid)
                obj_size.append(obj.size_bytes)
            objs.append(k)
            w = acc.mode is not AccessMode.READ
            has_traffic = acc.accesses > 0
            traffic_l.append(has_traffic)
            rows.append((uid, w, has_traffic))
            if has_traffic and w:
                writers.append(uid)
            miss_loads.append(acc.miss_loads)
            miss_stores.append(acc.miss_stores)
            read_bytes.append(acc.read_traffic_bytes)
            write_bytes.append(acc.write_traffic_bytes)
            mlps.append(acc.pattern.mlp)
        counts.append(len(t.accesses))
        task_rows.append(tuple(rows))
        task_writers.append(tuple(writers))
    indptr = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(np.array(counts, dtype=np.int64), out=indptr[1:])
    f64 = np.float64
    return AccessCSR(
        indptr=indptr,
        obj=np.array(objs, dtype=np.int64),
        traffic=np.array(traffic_l, dtype=np.bool_),
        miss_loads=np.array(miss_loads, dtype=f64),
        miss_stores=np.array(miss_stores, dtype=f64),
        read_bytes=np.array(read_bytes, dtype=f64),
        write_bytes=np.array(write_bytes, dtype=f64),
        mlp=np.array(mlps, dtype=f64),
        task_rows=tuple(task_rows),
        task_writers=tuple(task_writers),
        obj_uid=np.array(obj_uid, dtype=np.int64),
        obj_index=obj_index,
        obj_size=np.array(obj_size, dtype=np.int64),
    )


def reference_static_refs(graph: TaskGraph, known: float = 1.0) -> dict[int, float]:
    """uid -> the static reference count ``finalize_static_refs(graph,
    known)`` sets, by integer sums over every task's ``accesses``."""
    totals: dict[int, int] = {}
    for task in graph.tasks:
        for obj, acc in task.accesses.items():
            totals[obj.uid] = totals.get(obj.uid, 0) + acc.accesses
    uids = sorted(o.uid for o in graph.objects)
    known_cut = int(len(uids) * known)
    return {
        uid: float(totals.get(uid, 0)) if rank < known_cut else 0.0
        for rank, uid in enumerate(uids)
    }
