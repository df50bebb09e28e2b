"""Ready-queue scheduling policies for the executor.

The executor asks a :class:`SchedulingPolicy` which ready task to run next
whenever a worker frees up.  FIFO (spawn order) is the default and matches
the lookahead assumptions of the data manager; LIFO approximates depth-
first work-stealing locality; the critical-path policy is a HEFT-lite rank
scheduler used in the scaling study.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.validation import did_you_mean

__all__ = [
    "SchedulingPolicy",
    "FIFOPolicy",
    "LIFOPolicy",
    "CriticalPathPolicy",
    "MemoryAwarePolicy",
    "SCHEDULERS",
    "make_scheduler",
]


class SchedulingPolicy(Protocol):
    """Mutable priority container of ready tasks."""

    def prepare(self, graph: TaskGraph) -> None:
        """Called once before execution with the full graph."""

    def push(self, task: Task) -> None:
        """A task became ready."""

    def pop(self) -> Task:
        """Select the next task to run (must be non-empty)."""

    def __len__(self) -> int: ...


class FIFOPolicy:
    """Run ready tasks in spawn order (default; deterministic)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, Task]] = []

    def prepare(self, graph: TaskGraph) -> None:  # noqa: ARG002 - uniform API
        self._heap.clear()

    def push(self, task: Task) -> None:
        heapq.heappush(self._heap, (task.tid, task))

    def pop(self) -> Task:
        return heapq.heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)


class LIFOPolicy:
    """Run the most recently enabled task first (depth-first-ish)."""

    def __init__(self) -> None:
        self._stack: list[Task] = []

    def prepare(self, graph: TaskGraph) -> None:  # noqa: ARG002
        self._stack.clear()

    def push(self, task: Task) -> None:
        self._stack.append(task)

    def pop(self) -> Task:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class MemoryAwarePolicy:
    """Prefer ready tasks whose data is currently DRAM-resident.

    Scheduling/placement co-design: with a managed DRAM tier, running the
    tasks whose objects are already promoted (and deferring the ones whose
    promotions are still in flight) both avoids stalls and lengthens the
    overlap window of pending copies.  Ties fall back to spawn order so
    the data manager's lookahead assumptions still roughly hold.

    The executor calls :meth:`bind` with the machine before execution.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Task]] = []
        self._hms = None

    def prepare(self, graph: TaskGraph) -> None:  # noqa: ARG002
        self._heap.clear()

    def bind(self, hms) -> None:
        """Give the policy sight of current placements (executor hook)."""
        self._hms = hms

    def _dram_score(self, task: Task) -> float:
        """Fraction of the task's traffic bytes that are DRAM-resident."""
        if self._hms is None:
            return 0.0
        total = 0
        resident = 0
        for obj, acc in task.accesses.items():
            if acc.accesses == 0 or not self._hms.is_placed(obj):
                continue
            total += obj.size_bytes
            if self._hms.in_dram(obj):
                resident += obj.size_bytes
        return resident / total if total else 0.0

    def push(self, task: Task) -> None:
        # Score at enable time; placements may drift afterwards, but the
        # ready residence time is short and re-scoring on pop would break
        # the heap invariant.
        heapq.heappush(self._heap, (-self._dram_score(task), task.tid, task))

    def pop(self) -> Task:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class CriticalPathPolicy:
    """Prefer tasks with the longest remaining downward path (bottom level).

    Ranks are computed once from compute time plus a placement-agnostic
    memory estimate, so the ordering does not leak ground-truth placement
    timing into scheduling.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Task]] = []
        self._rank: dict[int, float] = {}

    def prepare(self, graph: TaskGraph) -> None:
        self._heap.clear()
        self._rank = graph.bottom_levels(
            lambda t: t.compute_time + 1e-9 * t.total_accesses
        )

    def push(self, task: Task) -> None:
        heapq.heappush(self._heap, (-self._rank.get(task.tid, 0.0), task.tid, task))

    def pop(self) -> Task:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


#: Ready-task ordering policies selectable by name (per :class:`RunSpec`
#: or :class:`ExecutorConfig`).
SCHEDULERS: dict[str, Callable[[], SchedulingPolicy]] = {
    "fifo": FIFOPolicy,
    "lifo": LIFOPolicy,
    "critical-path": CriticalPathPolicy,
    "memory-aware": MemoryAwarePolicy,
}


def make_scheduler(name: str) -> SchedulingPolicy:
    """Instantiate a registered scheduling policy by name.

    Unknown names raise ``KeyError`` with a did-you-mean suggestion.
    """
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}{did_you_mean(name, SCHEDULERS)} "
            f"(known: {sorted(SCHEDULERS)})"
        ) from None
    return factory()
