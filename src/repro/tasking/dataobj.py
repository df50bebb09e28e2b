"""Data objects: the unit of placement and migration.

A :class:`DataObject` is what the paper's ``unimem_malloc``-style API
registers: a named allocation (array, tile, buffer) whose placement the
runtime manages.  ``static_ref_count`` carries the compiler-analysis
analogue used for initial placement; ``partitionable`` marks regular 1-D
objects the chunking optimization may split.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.util.validation import require, require_positive

__all__ = ["DataObject"]

_uid_counter = itertools.count(1)


@dataclass(eq=False)
class DataObject:
    """A managed allocation.

    Identity is by ``uid`` (process-unique); two objects with the same name
    are distinct allocations.  Chunks produced by :meth:`partition` carry a
    reference to their parent so traces can aggregate per logical object.
    """

    name: str
    size_bytes: int
    #: Compiler-estimated number of memory references over the whole run
    #: (symbolic-formula analogue); 0 when statically unknown.
    static_ref_count: float = 0.0
    #: Whether the chunking optimization may split this object (regular 1-D
    #: accesses only, per the paper's conservative approach).
    partitionable: bool = False
    parent: "DataObject | None" = None
    chunk_index: int | None = None
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def __post_init__(self) -> None:
        require_positive(self.size_bytes, "size_bytes")
        self.size_bytes = int(self.size_bytes)

    # ------------------------------------------------------------------
    @property
    def root(self) -> "DataObject":
        """The top-level logical object this (possibly chunk) belongs to."""
        return self.parent.root if self.parent is not None else self

    def partition(self, n_chunks: int) -> list["DataObject"]:
        """Split into ``n_chunks`` contiguous chunks (last takes the slack)."""
        require(self.partitionable, f"{self.name} is not partitionable")
        require(n_chunks >= 1, "n_chunks must be >= 1")
        require(
            n_chunks <= self.size_bytes,
            f"cannot split {self.size_bytes} bytes into {n_chunks} chunks",
        )
        base = self.size_bytes // n_chunks
        chunks = []
        for i in range(n_chunks):
            size = base if i < n_chunks - 1 else self.size_bytes - base * (n_chunks - 1)
            chunks.append(
                DataObject(
                    name=f"{self.name}[{i}]",
                    size_bytes=size,
                    static_ref_count=self.static_ref_count / n_chunks,
                    partitionable=False,
                    parent=self,
                    chunk_index=i,
                )
            )
        return chunks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataObject({self.name!r}, {self.size_bytes}B, uid={self.uid})"

    def __hash__(self) -> int:
        return self.uid
