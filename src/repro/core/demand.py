"""Structure-of-arrays demand batches: the placement plane's data layout.

A replan weighs thousands of objects at once, and every per-object field
the weigher reads (projected counts, bandwidth demand, confidence,
residency, first-use offset) is a scalar — so the natural layout is one
numpy column per field, not one Python object per demand.
:class:`DemandBatch` is that layout: the demand projection in
:mod:`repro.core.manager` accumulates directly into its columns, the
vectorized weigher in :mod:`repro.core.placement` computes over them
with array arithmetic, and the knapsack consumes the ``size_bytes``
column without a list round-trip.

The batch is split in two halves:

- **projection columns** (``uid`` .. ``dram_frac``): pure functions of
  the task horizon and the type models, shared between the global and
  window scopes of one replan via :meth:`with_placement`;
- **placement columns** (``in_dram``, ``first_use_offset``): the current
  machine state, attached per plan without copying the projection.

Everything stays bitwise identical to the retired ``ObjectDemand``-list
path: columns hold exactly the floats the per-object accumulators held,
in the same (first-touch) order, and :meth:`to_demands` reconstructs the
list form for the differential reference weigher
(``tests/reference_weigher.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.models import ObjectStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.placement import ObjectDemand

__all__ = ["DemandBatch"]


class DemandBatch:
    """One column per demand field, one row per object (SoA layout)."""

    __slots__ = (
        "uid",
        "size_bytes",
        "loads",
        "stores",
        "misses",
        "bw_demand",
        "n_tasks",
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
        n_tasks: np.ndarray,
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
        self.n_tasks = n_tasks
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
        n_tasks: Sequence[int],
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
            np.asarray(n_tasks, dtype=np.int64),
            np.asarray(confidence, dtype=np.float64),
            np.asarray(mem_seconds, dtype=np.float64),
            np.asarray(dram_frac, dtype=np.float64),
        )

    @classmethod
    def empty(cls) -> "DemandBatch":
        return cls.from_columns([], [], [], [], [], [], [], [], [], [])

    @classmethod
    def from_demands(cls, demands: Iterable["ObjectDemand"]) -> "DemandBatch":
        """Build a batch (placement columns included) from the list form."""
        demands = list(demands)
        batch = cls.from_columns(
            [d.stats.uid for d in demands],
            [d.stats.size_bytes for d in demands],
            [d.stats.loads for d in demands],
            [d.stats.stores for d in demands],
            [d.stats.misses for d in demands],
            [d.stats.bw_demand for d in demands],
            [d.stats.n_tasks for d in demands],
            [d.stats.confidence for d in demands],
            [d.stats.mem_seconds for d in demands],
            [d.stats.dram_frac for d in demands],
        )
        return batch.with_placement(
            np.asarray([d.in_dram for d in demands], dtype=np.bool_),
            np.asarray([d.first_use_offset for d in demands], dtype=np.float64),
        )

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
            self.n_tasks,
            self.confidence,
            self.mem_seconds,
            self.dram_frac,
            in_dram=np.asarray(in_dram, dtype=np.bool_),
            first_use_offset=np.asarray(first_use_offset, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.uid.shape[0])

    def to_demands(self) -> list["ObjectDemand"]:
        """Reconstruct the list-of-:class:`ObjectDemand` form.

        The differential reference weigher
        (``tests/reference_weigher.py``) consumes this; columns round-trip
        through it bit-for-bit.
        """
        from repro.core.placement import ObjectDemand

        in_dram = self.in_dram
        first = self.first_use_offset
        n = len(self)
        in_dram_l = in_dram.tolist() if in_dram is not None else [False] * n
        first_l = first.tolist() if first is not None else [0.0] * n
        out: list[ObjectDemand] = []
        for i, uid in enumerate(self.uid.tolist()):
            st = ObjectStats(
                uid=uid,
                size_bytes=int(self.size_bytes[i]),
                loads=float(self.loads[i]),
                stores=float(self.stores[i]),
                misses=float(self.misses[i]),
                bw_demand=float(self.bw_demand[i]),
                n_tasks=int(self.n_tasks[i]),
                confidence=float(self.confidence[i]),
                mem_seconds=float(self.mem_seconds[i]),
                dram_frac=float(self.dram_frac[i]),
            )
            out.append(ObjectDemand(st, in_dram_l[i], first_l[i]))
        return out
