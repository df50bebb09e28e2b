"""DAG lookahead: which tasks remain, when will they run, and when is
data needed?

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

A replan reads its remaining tasks once, through :func:`scan_frontier`:
their access rows, each object's first remaining row, the tasks' start
offsets and the dependence-level widths of both planning scopes.  The
demand projection, :func:`first_use_offsets_split` and the parallel
slack then share that :class:`Frontier`.  When the remaining tasks are
every task from the first on (the executor dispatched in spawn order up
to there), the per-object and per-level values are read off per-graph
tables; otherwise (tasks dispatched out of order) they are derived from
the gathered rows and depths.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.tasking.graph import GraphExecCore

__all__ = ["Frontier", "scan_frontier", "first_use_offsets_split"]


class Frontier(NamedTuple):
    """The remaining tasks of one replan and what its passes read of
    them (see :func:`scan_frontier`)."""

    #: Remaining dense task indices, spawn order.
    tasks: np.ndarray
    #: How many of them, from the first, the lookahead window holds.
    window_len: int
    #: Their access rows, in task order, and the row count of each task.
    rows: np.ndarray
    lens: np.ndarray
    #: Each task's type id.
    type_of: np.ndarray
    #: Each object's first remaining row, in row order (the first-touch
    #: order), when the remaining tasks are every task from the first on,
    #: so each object's remaining rows are all its rows from that one on;
    #: ``None`` when tasks were dispatched out of order.
    first: np.ndarray | None
    #: Each task's start offset, then the end of the last.
    starts: np.ndarray
    #: Task count per dependence level, levels in first-occurrence order:
    #: over every remaining task, and over the window.
    widths: tuple[list[int], list[int]]


def _level_widths(depths: np.ndarray) -> list[int]:
    """Task count per level of ``depths``, levels in first-occurrence
    order."""
    n = len(depths)
    if n == 0:
        return []
    first = np.full(int(depths.max()) + 1, n)
    np.minimum.at(first, depths, np.arange(n))
    levels = np.flatnonzero(first < n)
    return np.bincount(depths)[levels[np.argsort(first[levels])]].tolist()


def scan_frontier(
    core: GraphExecCore,
    tasks: np.ndarray,
    window_len: int,
    duration_by_type: np.ndarray,
    n_workers: int,
) -> Frontier:
    """The :class:`Frontier` of the dense-indexed remaining ``tasks``
    (ascending), whose first ``window_len`` are the window.

    A task's start offset is the sequential prefix sum of
    ``duration_by_type[type] / workers`` over the tasks ahead of it
    (``np.cumsum`` after a leading zero: the area argument above,
    accumulated left to right).

    When the tasks are every task from the first on, the rows are one
    range, each object's first remaining row is the one whose previous
    row of the object lies before the range (``AccessCSR._chain``), and
    the level widths are counted off the tasks grouped by depth
    (``GraphExecCore._by_depth``) between the first task, the window's
    end and the last.  Otherwise the rows are gathered, ``first`` is
    ``None`` and the widths are counted over the tasks' depths.
    """
    csr = core.accesses
    n_tasks = len(core.tasks)
    t0 = int(tasks[0]) if len(tasks) else n_tasks
    if len(tasks) and len(tasks) == n_tasks - t0:
        lo = int(csr.indptr[t0])
        rows = np.arange(lo, len(csr.obj), dtype=np.int64)
        lens = csr.indptr[t0 + 1 :] - csr.indptr[t0:-1]
        first = np.flatnonzero(csr._chain[0][lo:] < lo) + lo
        type_of = core.type_id[t0:]
        # Per depth, where its tasks from t0 on start among the keys; the
        # full scope counts them to the depth's end, the window to its
        # end task, and the depths order by their first task.
        keys, base, ends = core._by_depth
        start = keys.searchsorted(base + t0)
        counts = ends - start
        levels = np.flatnonzero(counts)
        levels = levels[(keys[start[levels]] - base[levels]).argsort()]
        window = keys.searchsorted(base[levels] + min(t0 + window_len, n_tasks))
        window -= start[levels]
        widths = counts[levels].tolist(), window[window > 0].tolist()
    else:
        rows, lens = csr.gather(tasks)
        first = None
        type_of = core.type_id[tasks]
        depths = core.depth[tasks]
        widths = _level_widths(depths), _level_widths(depths[:window_len])
    starts = np.zeros(len(type_of) + 1)
    np.multiply(duration_by_type[type_of], 1.0 / max(1, n_workers), out=starts[1:])
    starts.cumsum(out=starts)
    return Frontier(tasks, window_len, rows, lens, type_of, first, starts, widths)


def first_use_offsets_split(
    core: GraphExecCore, front: Frontier
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(window, full-horizon) first-use offsets of the remaining tasks of
    ``front``.

    Each scope is a pair of arrays in first-use order: dense object
    indices (into ``core.accesses``) and their offsets.  An object's
    first use is its first remaining access row with traffic, at the
    start offset of that row's task.  The window is the prefix of the
    full map whose first use falls in the window's tasks.

    With each object's first remaining row known, its first use is that
    row's next hot row (``AccessCSR._next_hot``).  Otherwise each
    object's first hot row is found among the gathered rows.
    """
    csr = core.accesses
    if front.first is not None:
        hot = front.first
        cold, cold_hot = csr._next_hot
        if len(cold):
            hot = hot.copy()
            at = np.flatnonzero(~csr.traffic[hot])
            hot[at] = cold_hot[cold.searchsorted(hot[at])]
        has = hot < len(csr.obj)
        hot = hot[has]
        by_use = hot.argsort()
        objs = csr.obj[front.first[has][by_use]]
        # Each row's task, as a position among the remaining tasks.
        pos = np.searchsorted(csr.indptr, hot[by_use], side="right")
        pos -= front.tasks[0] + 1
    else:
        rows = front.rows
        hot = csr.traffic[rows]
        pos = np.repeat(np.arange(len(front.tasks)), front.lens)[hot]
        hot_objs = csr.obj[rows[hot]]
        first = np.full(len(csr.obj_uid), len(pos))
        np.minimum.at(first, hot_objs, np.arange(len(pos)))
        # Mark each object's first hot row (untouched objects mark the
        # sentinel past the end) and read the objects off in row order.
        is_first = np.zeros(len(pos) + 1, dtype=np.bool_)
        is_first[first] = True
        at = np.flatnonzero(is_first[:-1])
        objs = hot_objs[at]
        pos = pos[at]
    offsets = front.starts[pos]
    k = int(np.searchsorted(pos, front.window_len))
    return (objs[:k], offsets[:k]), (objs, offsets)
