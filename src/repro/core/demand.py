"""The demand projection: what the remaining tasks will ask of each
object, in the column layout the placement plane weighs.

Every per-object field the weigher reads is a scalar, so
:class:`DemandBatch` holds one numpy column per field: the projection
folds into its columns, :func:`~repro.core.placement.make_plan` weighs
them stacked (one batch per scope) and the knapsack reads
``size_bytes`` as is.  Its projection columns (``uid`` ..
``dram_frac``) are shared between the scopes of one replan; the
placement columns (``in_dram``, ``first_use_offset``) are attached per
plan by :meth:`DemandBatch.with_placement` without a copy.

A replan reads its remaining tasks once, through :func:`scan_frontier`,
into a :class:`Frontier`: their access rows, each object's first
remaining row, the tasks' start offsets and the dependence-level widths
of both scopes.  A task's start offset is the area argument: it starts
when the predicted work ahead of it has been spread over the workers,
dependence stalls ignored (early is conservative for a copy-overlap
estimate).  :func:`first_use_offsets_split` (the overlap windows of
Eq. 6) and the run's :class:`DemandProjection` read that frontier.  The
projection's every fold runs through one step loop,
:func:`_fold_steps`, driven directly over the rows (:func:`_fold_rows`)
or once per row-term epoch over every row's suffix
(:func:`_suffix_folds`), bitwise the scalar accumulator in
``tests/reference_projection.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.tasking.graph import AccessCSR, GraphExecCore

if TYPE_CHECKING:  # typing only
    from repro.core.models import TypeModel

__all__ = [
    "DemandBatch", "DemandProjection", "Frontier", "scan_frontier", "first_use_offsets_split"
]


class DemandBatch:
    """One column per demand field, one row per object (SoA layout)."""

    __slots__ = (
        "uid",
        "size_bytes",
        "loads",
        "stores",
        "misses",
        "bw_demand",
        "confidence",
        "mem_seconds",
        "dram_frac",
        "in_dram",
        "first_use_offset",
    )

    def __init__(
        self,
        uid: np.ndarray,
        size_bytes: np.ndarray,
        loads: np.ndarray,
        stores: np.ndarray,
        misses: np.ndarray,
        bw_demand: np.ndarray,
        confidence: np.ndarray,
        mem_seconds: np.ndarray,
        dram_frac: np.ndarray,
        in_dram: np.ndarray | None = None,
        first_use_offset: np.ndarray | None = None,
    ) -> None:
        self.uid = uid
        self.size_bytes = size_bytes
        self.loads = loads
        self.stores = stores
        self.misses = misses
        self.bw_demand = bw_demand
        self.confidence = confidence
        self.mem_seconds = mem_seconds
        self.dram_frac = dram_frac
        #: bool column; ``None`` until :meth:`with_placement` attaches it.
        self.in_dram = in_dram
        #: float column; ``None`` until :meth:`with_placement` attaches it.
        self.first_use_offset = first_use_offset

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        uid: Sequence[int],
        size_bytes: Sequence[int],
        loads: Sequence[float],
        stores: Sequence[float],
        misses: Sequence[float],
        bw_demand: Sequence[float],
        confidence: Sequence[float],
        mem_seconds: Sequence[float],
        dram_frac: Sequence[float],
    ) -> "DemandBatch":
        """Freeze accumulator columns (plain Python lists) into arrays."""
        return cls(
            np.asarray(uid, dtype=np.int64),
            np.asarray(size_bytes, dtype=np.int64),
            np.asarray(loads, dtype=np.float64),
            np.asarray(stores, dtype=np.float64),
            np.asarray(misses, dtype=np.float64),
            np.asarray(bw_demand, dtype=np.float64),
            np.asarray(confidence, dtype=np.float64),
            np.asarray(mem_seconds, dtype=np.float64),
            np.asarray(dram_frac, dtype=np.float64),
        )

    @classmethod
    def empty(cls) -> "DemandBatch":
        return cls.from_columns([], [], [], [], [], [], [], [], [])

    def with_placement(
        self, in_dram: np.ndarray, first_use_offset: np.ndarray
    ) -> "DemandBatch":
        """A view of this batch with placement columns attached.

        The projection columns are shared (never mutated after
        construction), so attaching per-plan machine state costs two
        array references, not a copy of the projection.
        """
        return DemandBatch(
            self.uid,
            self.size_bytes,
            self.loads,
            self.stores,
            self.misses,
            self.bw_demand,
            self.confidence,
            self.mem_seconds,
            self.dram_frac,
            in_dram=np.asarray(in_dram, dtype=np.bool_),
            first_use_offset=np.asarray(first_use_offset, dtype=np.float64),
        )

    @classmethod
    def stack(cls, batches: Sequence["DemandBatch"]) -> "DemandBatch":
        """The rows of ``batches`` in order, as one batch; each must have
        its placement columns attached.  One batch is returned as is."""
        if len(batches) == 1:
            return batches[0]
        return cls(
            *(np.concatenate([getattr(b, name) for b in batches]) for name in cls.__slots__)
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.uid.shape[0])


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


#: Projection row of an access whose type model has no slots: field for
#: field what an empty ``SlotStats()`` reports (confidence 1.0, the rest 0).
_EMPTY_SLOT_ROW = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _fold_steps(
    grouped: np.ndarray,
    heads: np.ndarray,
    first: int,
    steps: int,
    filler: np.ndarray | None,
    terms: tuple[np.ndarray, np.ndarray],
    state: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Fold one block of access rows into running per-column demand: the
    step loop of every demand fold.

    The block is ``steps`` steps from step ``first`` of ``m`` columns:
    column ``c``'s ``j``-th row is ``grouped[heads[c] + j]``, except
    where ``filler`` (``(steps, m)``; ``None`` when nothing is) marks
    the steps past its last row, whose cells take the filler row.  Each
    row brings the row ``terms`` (see :meth:`DemandProjection.terms_for`,
    whose last row is the filler): the operand pairs ``(misses,
    mem_seconds)``, ``(loads, stores)`` and ``(confidence * misses,
    dram_frac * mem_seconds)``, ``-0.0`` for the filler, and the
    bandwidth demand, ``-inf`` for the filler.  The ``state`` carries
    from one block to the next and is updated in place: ``(totals,
    means, bw)``, the first two pairs' running sums (``(2, m, 2)``),
    the running confidence and ``dram_frac`` (``(m, 2)``, contiguous)
    and the running ``bw_demand`` (``(m,)``).

    Per column, every float operation is the scalar accumulator's, in
    its order:

    - sums run ``total + term``, from the ``0.0`` of a fresh state,
      step by step down the block, which then holds every step's
      running totals; adding a filler ``-0.0`` leaves any total as it
      is, so a column's totals are those of the block's last step;
    - the means run ``(cur * old + term) / new``, updated only where
      ``new > 0`` at a step with a row: the positivity test runs over
      the whole block at once, and each step divides unmasked, straight
      into the means when every cell passes, else keeping the
      quotients where it passes;
    - ``bw_demand`` is a max from ``0.0``, whose order does not matter,
      so it is taken over the whole block at once (``-inf`` never wins
      it).
    """
    pairs, row_bw = terms
    rows = grouped.take(heads + np.arange(first, first + steps)[:, None], mode="clip")
    if filler is not None:
        rows[filler] = len(row_bw) - 1
    block, block_bw = np.take(pairs, rows, axis=1), row_bw[rows]
    del rows
    totals, means, bw = state

    # Running sums, one np.add per step and pair, on contiguous operands
    # (a step's two pairs together are not, and a strided add costs about
    # twice as much).  An accumulate down the block makes the same
    # additions, but runs one inner loop per running sum, which doubles
    # the cost of the table's wide blocks.
    sums = block[:2]
    for prev, pair in zip(totals, sums):
        for cur in pair:
            np.add(prev, cur, out=cur)
            prev = cur
    np.maximum(bw, block_bw.max(axis=0), out=bw)
    # Means over flat (column, mean) entries.  A step's product, sum and
    # quotient overwrite its old weights, which nothing reads again (the
    # last step's are the new totals).
    weights = block[0].reshape(steps, -1)
    positive = weights > 0.0
    if filler is not None:
        positive.reshape(steps, -1, 2)[filler] = False
    flat = means.reshape(-1)
    old = totals[0].reshape(-1)
    multiply, divide, putmask = np.multiply, np.divide, np.putmask
    clean = positive.all(axis=1).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        for new, p, q, c in zip(weights, block[2].reshape(steps, -1), positive, clean):
            multiply(flat, old, out=old)
            old += p
            if c:
                divide(old, new, out=flat)
            else:
                divide(old, new, out=old)
                putmask(flat, q, old)
            old = new
    totals[...] = sums[:, -1]


def _fresh_state(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_fold_steps` state of ``m`` columns that have folded no
    row: ``(totals, means, bw)``."""
    means = np.zeros((m, 2))
    means[:, 0] = 1.0
    return np.zeros((2, m, 2)), means, np.zeros(m)


def _demand_batch(
    csr: AccessCSR,
    order: np.ndarray,
    totals: np.ndarray,
    means: np.ndarray,
    bw: np.ndarray,
) -> DemandBatch:
    """The :class:`DemandBatch` of the dense objects ``order`` from their
    folded :func:`_fold_steps` state, in that order."""
    sums = totals.transpose(0, 2, 1).reshape(4, -1)
    conf, dram_frac = means.T.copy()
    return DemandBatch(
        csr.obj_uid[order],
        csr.obj_size[order],
        sums[2],  # loads
        sums[3],  # stores
        sums[0],  # misses
        bw,
        conf,
        sums[1],  # mem_seconds
        dram_frac,
    )


def _fold_rows(
    csr: AccessCSR,
    rows: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray],
) -> tuple[DemandBatch, np.ndarray]:
    """Fold the access ``rows`` (ascending) into per-object demand under
    the row ``terms`` (see :meth:`DemandProjection.terms_for`).  Returns
    ``(batch, objects)``: batch rows in first-touch order and their
    dense object indices.

    One block for :func:`_fold_steps`: each object is a column, in
    first-touch order, whose ``k``-th step is its ``k``-th row.  An
    object's rows between the first and the last of ``rows`` are
    consecutive among the rows grouped by object
    (``AccessCSR._by_object``), from its first row there on; when rows
    between them are left out, those runs are copied without them.  No
    sort runs over the rows.
    """
    if len(rows) == 0:
        return DemandBatch.empty(), rows
    grouped, starts, rank = csr._by_object
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    # Each object's first row between lo and hi, in row order.
    first = np.flatnonzero(csr._chain[0][lo:hi] < lo) + lo
    objects = csr.obj[first]
    counts = np.bincount(csr.obj[lo:hi], minlength=len(csr.obj_uid))[objects]
    heads = starts[objects] + rank[first]
    if len(rows) < hi - lo:
        at = np.cumsum(counts) - counts
        grouped = grouped[np.arange(hi - lo) + np.repeat(heads - at, counts)]
        inside = np.zeros(hi - lo, dtype=np.bool_)
        inside[rows - lo] = True
        kept = inside[grouped - lo]
        grouped = grouped[kept]
        counts = np.add.reduceat(kept, at, dtype=np.int64)
        objects, counts = objects[counts > 0], counts[counts > 0]
        heads = np.cumsum(counts) - counts
        first_touch = np.argsort(grouped[heads])
        objects, counts, heads = objects[first_touch], counts[first_touch], heads[first_touch]
    state = _fresh_state(len(objects))
    steps = int(counts.max())
    filler = np.arange(steps)[:, None] >= counts
    _fold_steps(grouped, heads, 0, steps, filler, terms, state)
    return _demand_batch(csr, objects, *state), objects


def _suffix_folds(
    csr: AccessCSR, terms: tuple[np.ndarray, np.ndarray], lo: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per access row from row ``lo`` on, the fold of its object over
    that row and every later row of the object, in task order, under
    the row ``terms`` (see :meth:`DemandProjection.terms_for`).

    Returns ``(col, state)``: row ``r``'s fold is column ``col[r -
    lo]`` of the folded :func:`_fold_steps` state.  A frontier whose
    remaining rows of each object are all of its rows from the first
    remaining one on folds, per object, exactly the suffix of that
    first row, so its full-horizon demand is a lookup.

    One column per row, whose rows are its object's from it on among
    the rows grouped by object (``AccessCSR._by_object``), by
    descending suffix length, so the columns with a row at step ``j``
    are a prefix.  They fold straight into the state, half the columns
    at a time, in blocks (:func:`_fold_steps`) of at most that many
    cells in which more than half the columns have a row at every step,
    so the transient memory stays below the state's own.
    """
    grouped, starts, rank = csr._by_object
    suffix_len = csr._chain[1][lo:]
    by_len = np.argsort(-suffix_len, kind="stable")
    heads = (starts[csr.obj[lo:]] + rank[lo:])[by_len]
    lens = suffix_len[by_len]
    # Per step, how many columns have a row there.
    active = np.searchsorted(-lens, -np.arange(int(lens[0])), side="left")
    del by_len, lens
    width = len(heads)
    band = -(-width // 2)
    totals, means, bw = _fresh_state(width)
    for c0 in range(0, width, band):
        widths = np.minimum(active[active > c0] - c0, band)
        j = 0
        while j < len(widths):
            m = int(widths[j])
            k = j + 1
            while k < len(widths) and widths[k] > m // 2 and (k - j + 1) * m <= band:
                k += 1
            c1 = c0 + m
            filler = np.arange(m) >= widths[j:k, None] if widths[k - 1] < m else None
            state = totals[:, c0:c1], means[c0:c1], bw[c0:c1]
            _fold_steps(grouped, heads[c0:c1], j, k - j, filler, terms, state)
            j = k
    col = np.empty(width, dtype=np.int64)
    col[grouped[heads] - lo] = np.arange(width)
    return col, (totals, means, bw)


class DemandProjection:
    """The demand projection of one run (:meth:`project`) and the state
    it keeps between replans: the row terms of the current row-term
    epoch and, once a frontier could read it, that epoch's suffix table.

    The type models come in with each call, one per type (``None`` for
    a type without a ready model).  A policy makes one per run, so
    nothing is shared between runs or policies.
    """

    __slots__ = ("_key", "row_terms", "suffix_table")

    def __init__(self) -> None:
        #: What the row terms were built from: the ``AccessCSR`` and the
        #: ``slot_rows()`` tuple of every type, compared by identity.
        self._key: tuple | None = None
        #: The fold's operands over every access row (:meth:`terms_for`).
        self.row_terms: tuple[np.ndarray, np.ndarray] | None = None
        #: ``(lo, col, state)``: the epoch's :func:`_suffix_folds` from
        #: its row ``lo`` on; ``None`` until a frontier of the epoch
        #: could read it.
        self.suffix_table: tuple | None = None

    def terms_for(
        self, core: GraphExecCore, models: Sequence[TypeModel | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The fold's operands over the access rows of ``core.accesses``
        under ``models`` (one per type, ``None`` for a type without a
        ready model, whose rows are never read): ``(pairs, bw)``, where
        ``pairs[:, row]`` is ``(misses, mem_seconds)``, ``(loads,
        stores)`` and ``(confidence * misses, dram_frac * mem_seconds)``
        and ``bw[row]`` the bandwidth demand (``0.0`` where it fails
        ``> 0.0``).  One more row after the last is the filler of
        :func:`_fold_steps`: ``-0.0`` pairs and a ``-inf`` bandwidth.

        A row takes its slot's model row, the last slot for extra
        accesses and an empty ``SlotStats`` row for a slot-less model.
        The table depends only on the access table and the models' slot
        rows, so it is kept until either changes, which ends the
        row-term epoch and drops its suffix table: the key is the
        ``AccessCSR`` and the ``slot_rows()`` tuple of every type, both
        compared by identity (``slot_rows`` returns the same tuple until
        its model observes another profile).  The key holds them, so
        their ids cannot be reused.
        """
        csr = core.accesses
        key = tuple(m.slot_rows() if m is not None else None for m in models)
        kept = self._key
        if (
            kept is not None
            and kept[0] is csr
            and all(a is b for a, b in zip(kept[1], key))
        ):
            return self.row_terms
        # One row table for every modelled type's slots, plus the
        # fallback row: what an empty ``SlotStats()`` reports.
        table: list[tuple[float, ...]] = []
        base = np.zeros(len(key), dtype=np.int64)
        last = np.full(len(key), -1, dtype=np.int64)
        for k, slots in enumerate(key):
            if slots is not None:
                base[k] = len(table)
                last[k] = len(slots) - 1
                table.extend(slots)
        fallback = len(table)
        table.append(_EMPTY_SLOT_ROW)
        # Past the last, the filler row.
        slot_rows = np.array(table, dtype=np.float64)
        slot_pairs = np.full((3, len(table) + 1, 2), -0.0)
        slot_pairs[0, :-1] = slot_rows[:, [2, 5]]
        slot_pairs[1, :-1] = slot_rows[:, [0, 1]]
        slot_pairs[2, :-1] = slot_rows[:, [4, 6]] * slot_pairs[0, :-1]
        bw = slot_rows[:, 3]
        slot_bw = np.append(np.where(bw > 0.0, bw, 0.0), -np.inf)

        row_type = np.repeat(core.type_id, np.diff(csr.indptr))
        row_last = last[row_type]
        slot = np.where(
            row_last >= 0,
            base[row_type] + np.minimum(csr.slot, row_last),
            fallback,
        )
        slot = np.append(slot, len(table))
        self._key = (csr, key)
        self.row_terms = (np.take(slot_pairs, slot, axis=1), np.take(slot_bw, slot))
        self.suffix_table = None
        return self.row_terms

    def project(
        self,
        core: GraphExecCore,
        front: Frontier,
        models: Sequence[TypeModel | None],
        need_window: bool,
    ) -> tuple[
        tuple[DemandBatch, float, np.ndarray], tuple[DemandBatch, float, np.ndarray]
    ]:
        """(window, full-horizon) demand projections of the remaining
        tasks of ``front`` (spawn order), the window being their first
        ``front.window_len``, under ``models`` (one per type).

        Each scope is ``(batch, horizon, objects)``: the batch rows are in
        first-touch order and ``objects`` holds their dense indices into
        ``core.accesses``.  Tasks whose type has no ready model are
        skipped; every other task's access rows take their row terms
        (:meth:`terms_for`).

        When every task has a ready model and the frontier knows each
        object's first remaining row (every task from the first on
        remains), the full scope is read off the suffix table at those
        rows, which are in first-touch order: the epoch builds it at the
        first such frontier, from that frontier's first remaining row
        on, and a later frontier that starts before it folds directly.
        Otherwise the rows are folded per object by :func:`_fold_rows`.
        The window is always folded directly; its rows are a prefix of
        the rows.

        ``need_window=False`` skips the window fold when the caller will
        not build a window-scoped plan (the window is then empty unless
        it covers every task).
        """
        csr = core.accesses
        tasks, window_len = front.tasks, front.window_len
        has_model = np.array([m is not None for m in models], dtype=np.bool_)
        durations = np.array(
            [m.mean_duration if m is not None else 0.0 for m in models]
        )
        row_terms = self.terms_for(core, models)

        type_of = front.type_of
        keep = has_model[type_of]
        if keep.all():
            kept = tasks
            rows, lens = front.rows, front.lens
        else:
            kept = tasks[keep]
            type_of = type_of[keep]
            rows, lens = csr.gather(kept)
        # Horizon: the sequential sum of the kept tasks' durations.
        horizon = np.zeros(len(type_of) + 1)
        np.take(durations, type_of, out=horizon[1:])
        horizon.cumsum(out=horizon)
        # The window's rows are a prefix of the rows.
        split = len(tasks) > window_len and need_window
        n_kept = int(np.count_nonzero(keep[:window_len])) if split else 0
        n_window = int(lens[:n_kept].sum())

        # The table answers only frontiers where every task is kept.
        first = front.first if kept is tasks and len(rows) else None
        if first is not None and self.suffix_table is None:
            lo = int(rows[0])
            self.suffix_table = (lo, *_suffix_folds(csr, row_terms, lo))
        if first is not None and rows[0] >= self.suffix_table[0]:
            lo, col, (totals, means, bw) = self.suffix_table
            order = csr.obj[first]
            c = col[first - lo]
            batch = _demand_batch(csr, order, totals[:, c], means[c], bw[c])
        else:
            batch, order = _fold_rows(csr, rows, row_terms)
        full = (batch, float(horizon[-1]), order)
        if len(tasks) <= window_len:
            return full, full
        if not need_window:
            return (DemandBatch.empty(), 0.0, order[:0]), full
        w_batch, w_order = _fold_rows(csr, rows[:n_window], row_terms)
        return (w_batch, float(horizon[n_kept]), w_order), full
