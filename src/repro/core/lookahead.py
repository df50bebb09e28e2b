"""DAG lookahead: when will upcoming tasks run, and when is data needed?

The proactive-migration mechanism needs two estimates per candidate
object:

- the *overlap window*: time from now until the object's first use in the
  upcoming window (copy time hidden inside it is free — Eq. 6);
- the earliest dependency-safe start is tracked by the executor context
  (``last_use_finish``); this module only does the forward-looking part.

Start times are estimated with the standard area argument: the k-th
upcoming task starts roughly when the total predicted work of the tasks
ahead of it has been spread over the workers.  It ignores dependence
stalls — fine for a *migration overlap* estimate, where being early is
conservative (less assumed overlap) and being late merely schedules the
copy sooner than strictly needed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tasking.graph import GraphExecCore
from repro.tasking.task import Task

__all__ = [
    "estimate_start_offsets",
    "first_use_offsets",
    "first_use_offsets_split",
]


def estimate_start_offsets(
    tasks: Sequence[Task],
    duration_of: Callable[[Task], float],
    n_workers: int,
) -> list[float]:
    """Offset (seconds from now) at which each of ``tasks`` should start."""
    offsets: list[float] = []
    acc = 0.0
    inv = 1.0 / max(1, n_workers)
    for t in tasks:
        offsets.append(acc)
        acc += duration_of(t) * inv
    return offsets


def first_use_offsets(
    tasks: Sequence[Task],
    duration_of: Callable[[Task], float],
    n_workers: int,
) -> dict[int, float]:
    """Per-object uid, the offset of its first use within ``tasks``."""
    offsets = estimate_start_offsets(tasks, duration_of, n_workers)
    first: dict[int, float] = {}
    for t, off in zip(tasks, offsets):
        for obj, acc in t.accesses.items():
            if acc.accesses and obj.uid not in first:
                first[obj.uid] = off
    return first


def first_use_offsets_split(
    core: GraphExecCore,
    tasks: np.ndarray,
    window_len: int,
    duration_by_type: np.ndarray,
    n_workers: int,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(window, full-horizon) first-use offsets of the dense-indexed
    ``tasks`` (spawn order), the window being their first ``window_len``.

    Each scope is a pair of arrays in first-use order: dense object
    indices (into ``core.accesses``) and their offsets.  A task's start
    offset is the sequential prefix sum of ``duration_by_type[type] /
    workers`` over the tasks ahead of it — ``np.cumsum`` after a leading zero is
    the same additions in the same order as :func:`estimate_start_offsets`
    — and an object's first use is its first access row with traffic.
    The window is the prefix of the full map whose first use falls in
    the first ``window_len`` tasks.
    """
    inv = 1.0 / max(1, n_workers)
    csr = core.accesses
    steps = duration_by_type[core.type_id[tasks]] * inv
    starts = np.cumsum(np.concatenate(([0.0], steps)))
    rows, lens = csr.gather(tasks)
    hot = csr.traffic[rows]
    pos = np.repeat(np.arange(len(tasks)), lens)[hot]
    first = np.full(len(csr.obj_uid), len(pos))
    np.minimum.at(first, csr.obj[rows[hot]], np.arange(len(pos)))
    objs = np.flatnonzero(first < len(pos))
    first = first[objs]
    order = np.argsort(first)
    objs = objs[order]
    pos = pos[first[order]]
    offsets = starts[pos]
    k = int(np.searchsorted(pos, window_len))
    return (objs[:k], offsets[:k]), (objs, offsets)
