"""Convenience constructors for task footprints.

Workload generators and user code describe accesses in *bytes touched*;
these helpers convert to instruction counts (64-bit word granularity) and
attach the right pattern class.  ``reuse`` multiplies the touch count for
algorithms that sweep an object several times within one task.

Footprints are interned: equal ``(mode, loads, stores, pattern)`` yield
one shared :class:`ObjectAccess`.  A workload spawns thousands of tasks
with a handful of distinct footprints, and the instances are frozen (the
precomputed traffic values depend only on the fields), so sharing them
is invisible to every reader.  The intern table is a bounded LRU: a
long-lived process sweeping many sizes keeps only the recent ones.
"""

from __future__ import annotations

from functools import lru_cache

from repro.tasking.access import (
    BLOCKED,
    POINTER_CHASE,
    RANDOM,
    STREAMING,
    AccessMode,
    AccessPattern,
    ObjectAccess,
)

__all__ = [
    "read_footprint",
    "write_footprint",
    "update_footprint",
    "chase_footprint",
    "STREAMING",
    "BLOCKED",
    "POINTER_CHASE",
    "RANDOM",
]

#: Bytes per load/store instruction (64-bit words).
WORD_BYTES = 8


def _count(nbytes: float, reuse: float) -> int:
    return max(0, int(round(nbytes * reuse / WORD_BYTES)))


@lru_cache(maxsize=4096)
def _interned(
    mode: AccessMode, loads: int, stores: int, pattern: AccessPattern
) -> ObjectAccess:
    return ObjectAccess(mode, loads=loads, stores=stores, pattern=pattern)


def read_footprint(
    nbytes: float, pattern: AccessPattern = STREAMING, reuse: float = 1.0
) -> ObjectAccess:
    """A read-only sweep over ``nbytes`` (times ``reuse``)."""
    return _interned(AccessMode.READ, _count(nbytes, reuse), 0, pattern)


def write_footprint(
    nbytes: float, pattern: AccessPattern = STREAMING, reuse: float = 1.0
) -> ObjectAccess:
    """A write-only sweep over ``nbytes`` (times ``reuse``)."""
    return _interned(AccessMode.WRITE, 0, _count(nbytes, reuse), pattern)


def update_footprint(
    read_bytes: float,
    written_bytes: float,
    pattern: AccessPattern = BLOCKED,
    reuse: float = 1.0,
) -> ObjectAccess:
    """A read-modify-write footprint."""
    return _interned(
        AccessMode.READWRITE,
        _count(read_bytes, reuse),
        _count(written_bytes, reuse),
        pattern,
    )


def chase_footprint(n_hops: int, stores_per_hop: float = 0.0) -> ObjectAccess:
    """A pointer-chase of ``n_hops`` dependent loads (latency-bound)."""
    stores = int(round(n_hops * stores_per_hop))
    mode = AccessMode.READWRITE if stores else AccessMode.READ
    return _interned(mode, int(n_hops), stores, POINTER_CHASE)
