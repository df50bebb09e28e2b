"""Scalar reference projection for differential testing.

These are the per-task loops the data manager's replan ran before its
demand projection, first-use offsets and parallel slack moved onto the
graph's access CSR, kept statement for statement (minus the per-run
task-row memo, which only cached what the loop recomputes); the
per-row update of one object's demand is :func:`fold_row`, which the
fold kernel's own property test folds against too.  The production
passes — ``DemandProjection.project`` and
:func:`~repro.core.demand.first_use_offsets_split` in
:mod:`repro.core.demand`, and ``DataManagerPolicy._parallel_slack`` —
fold the same rows with numpy;
``tests/test_projection_fold.py`` drives both over Hypothesis-generated
graphs and slot tables and compares every column by its IEEE-754 bytes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.demand import DemandBatch
from repro.tasking.task import Task

__all__ = [
    "EMPTY_DEMAND",
    "fold_row",
    "demand_stats_split_ref",
    "first_use_offsets_split_ref",
    "parallel_slack_ref",
]


#: One object's demand before any row: (loads, stores, misses, bw_demand,
#: confidence, mem_seconds, dram_frac).
EMPTY_DEMAND = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def fold_row(acc: list[float], row: tuple[float, ...]) -> None:
    """Fold one projected access row into one object's running demand.

    ``row`` is a slot row ``(loads, stores, misses, bw, conf,
    mem_seconds, dram_frac)``; ``acc`` holds the object's demand in the
    same field order, from :data:`EMPTY_DEMAND`.
    """
    loads, stores, misses, bw, conf, mem_s, dfrac = row
    old_misses = acc[2]
    new_misses = old_misses + misses
    if new_misses > 0:
        acc[4] = (acc[4] * old_misses + conf * misses) / new_misses
    old_mem = acc[5]
    new_mem = old_mem + mem_s
    if new_mem > 0:
        acc[6] = (acc[6] * old_mem + dfrac * mem_s) / new_mem
    acc[5] = new_mem
    acc[0] += loads
    acc[1] += stores
    acc[2] = new_misses
    if bw > acc[3]:
        acc[3] = bw


def demand_stats_split_ref(
    tasks: Sequence[Task],
    window_len: int,
    model_for: Callable[[str], object],
    need_window: bool = True,
) -> tuple[tuple[DemandBatch, float], tuple[DemandBatch, float]]:
    """(window, full-horizon) demand batches from a single pass: the
    reference for ``DemandProjection.project``.

    ``model_for(type_name)`` returns a ready type model (anything with
    ``mean_duration`` and ``slot_rows()``) or ``None``.
    """
    row_of: dict[int, int] = {}
    uids: list[int] = []
    sizes: list[int] = []
    accs: list[list[float]] = []
    horizon = 0.0
    win_batch: DemandBatch | None = None
    win_horizon = 0.0
    model_of_type: dict[str, object] = {}
    empty_row = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def accumulate(chunk) -> None:
        nonlocal horizon
        for t in chunk:
            tname = t.type_name
            model = model_of_type.get(tname, empty_row)
            if model is empty_row:
                model = model_of_type[tname] = model_for(tname)
            if model is None:
                continue
            horizon += model.mean_duration
            rows = model.slot_rows()
            n_slots = len(rows)
            for j, obj in enumerate(t.accesses):
                if n_slots:
                    row = rows[j] if j < n_slots else rows[-1]
                else:
                    row = empty_row
                try:
                    r = row_of[obj.uid]
                except KeyError:
                    r = row_of[obj.uid] = len(uids)
                    uids.append(obj.uid)
                    sizes.append(obj.size_bytes)
                    accs.append(list(EMPTY_DEMAND))
                fold_row(accs[r], row)

    def batch() -> DemandBatch:
        return DemandBatch.from_columns(list(uids), list(sizes), *map(list, zip(*accs)))

    if need_window and len(tasks) > window_len:
        accumulate(tasks[:window_len])
        win_batch = batch() if uids else DemandBatch.empty()
        win_horizon = horizon
        accumulate(tasks[window_len:])
    else:
        accumulate(tasks)
    full = batch() if uids else DemandBatch.empty()
    if len(tasks) <= window_len:
        win_batch, win_horizon = full, horizon
    elif win_batch is None:
        win_batch = DemandBatch.empty()
    return (win_batch, win_horizon), (full, horizon)


def first_use_offsets_split_ref(
    tasks: Sequence[Task],
    window_len: int,
    duration_by_type: dict[str, float],
    n_workers: int,
) -> tuple[dict[int, float], dict[int, float]]:
    """(window, full-horizon) ``{uid: first-use offset}`` maps: the
    reference for ``repro.core.demand.first_use_offsets_split``."""
    window: dict[int, float] = {}
    full: dict[int, float] = {}
    acc = 0.0
    inv = 1.0 / max(1, n_workers)
    for i, t in enumerate(tasks):
        off = acc
        acc = off + duration_by_type[t.type_name] * inv
        for uid in [obj.uid for obj, a in t.accesses.items() if a.accesses]:
            if uid not in full:
                full[uid] = off
                if i < window_len:
                    window[uid] = off
    return window, full


def parallel_slack_ref(
    tasks: Sequence[Task], depths: dict[int, int], n_workers: int
) -> float:
    """Task-weighted mean of per-level shares (``depths``: tid -> depth)."""
    if not tasks:
        return 1.0
    widths: dict[int, int] = {}
    for t in tasks:
        d = depths[t.tid]
        widths[d] = widths.get(d, 0) + 1
    workers = max(1, n_workers)
    num = 0.0
    for width in widths.values():
        if width <= 1:
            share = 1.0
        else:
            waves = width / workers
            if waves >= 2.0:
                share = 1.0
            else:
                base = 1.0 / width
                share = base + (1.0 - base) * max(0.0, waves - 1.0)
        num += width * share
    return num / len(tasks)
