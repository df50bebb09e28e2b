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

import numpy as np

from repro.tasking.graph import GraphExecCore

__all__ = ["first_use_offsets_split"]


def first_use_offsets_split(
    core: GraphExecCore,
    tasks: np.ndarray,
    window_len: int,
    duration_by_type: np.ndarray,
    n_workers: int,
    gathered: tuple[np.ndarray, np.ndarray],
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(window, full-horizon) first-use offsets of the dense-indexed
    ``tasks`` (spawn order), the window being their first ``window_len``.

    Each scope is a pair of arrays in first-use order: dense object
    indices (into ``core.accesses``) and their offsets.  A task's start
    offset is the sequential prefix sum of ``duration_by_type[type] /
    workers`` over the tasks ahead of it (``np.cumsum`` after a leading
    zero: the area argument above, accumulated left to right) — and an
    object's first use is its first access row with traffic.
    The window is the prefix of the full map whose first use falls in
    the first ``window_len`` tasks.  ``gathered`` is
    ``core.accesses.gather(tasks)``.
    """
    inv = 1.0 / max(1, n_workers)
    csr = core.accesses
    steps = duration_by_type[core.type_id[tasks]] * inv
    starts = np.cumsum(np.concatenate(([0.0], steps)))
    rows, lens = gathered
    hot = csr.traffic[rows]
    pos = np.repeat(np.arange(len(tasks)), lens)[hot]
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
    offsets = starts[pos]
    k = int(np.searchsorted(pos, window_len))
    return (objs[:k], offsets[:k]), (objs, offsets)
