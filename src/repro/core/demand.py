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

A batch is the only planning input: :func:`~repro.core.placement.make_plan`
takes one per scope and weighs them stacked (:meth:`DemandBatch.stack`),
and the scalar reference weigher (``tests/reference_weigher.py``) walks
its columns lane by lane.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
