"""Tasks: units of computation with declared data accesses.

Tasks carry a ``type_name`` — the profiling equivalence class.  In the
task-parallel setting the runtime cannot afford to profile every task
instance (there are thousands), so it profiles a few instances per *type*
(same code, e.g. all GEMM tasks) and reuses the model for the rest.  This
is the task-granularity counterpart of the MPI paper's per-phase profiling
and the key scalability delta of the SC 2018 system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.tasking.access import ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.util.validation import require_nonnegative

__all__ = ["Task"]

_tid_counter = itertools.count(1)


@dataclass(eq=False)
class Task:
    """One task instance.

    ``accesses`` maps each touched :class:`DataObject` to its ground-truth
    footprint.  ``compute_time`` is the pure-CPU time (seconds) the task
    needs independent of where its data lives.
    """

    name: str
    type_name: str
    accesses: dict[DataObject, ObjectAccess]
    compute_time: float = 0.0
    #: Outer-loop iteration this task belongs to (drives the adaptation
    #: experiments; -1 when the workload has no iterative structure).
    iteration: int = -1
    tid: int = field(default_factory=lambda: next(_tid_counter))

    def __post_init__(self) -> None:
        require_nonnegative(self.compute_time, "compute_time")

    # ------------------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return sum(a.accesses for a in self.accesses.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name!r}, type={self.type_name!r}, tid={self.tid})"

    def __hash__(self) -> int:
        return self.tid
