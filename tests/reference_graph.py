"""Record-keeping reference dependence inference for differential testing.

This is the inference :class:`repro.tasking.graph.TaskGraph` ran before
it stopped recording edges: every inferred edge appended a
:class:`Dependence` carrying its kind (RAW/WAW/WAR) and the object that
induced it, and manual edges appended a RAW record on a sentinel object.
The production graph keeps only the successor/predecessor sets;
``tests/test_tasking_graph.py`` drives both over Hypothesis-generated
access programs and compares every task's edges, and its kind tests
read the kinds recorded here.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass

from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.task import Task

__all__ = ["Dependence", "DependenceKind", "ReferenceGraph", "merge_accesses"]


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
            if access.mode.reads:
                lw = self._last_writer.get(uid)
                if lw is not None:
                    self._add_edge(lw, task, DependenceKind.RAW, obj)
            if access.mode.writes:
                lw = self._last_writer.get(uid)
                if lw is not None:
                    self._add_edge(lw, task, DependenceKind.WAW, obj)
                for reader in self._readers_since_write[uid]:
                    if reader is not task:
                        self._add_edge(reader, task, DependenceKind.WAR, obj)
                self._last_writer[uid] = task
                self._readers_since_write[uid] = []
            if access.mode.reads:
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
