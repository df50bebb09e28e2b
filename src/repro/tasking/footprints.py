"""Convenience constructors for task footprints.

Workload generators and user code describe accesses in *bytes touched*;
these helpers convert to instruction counts (64-bit word granularity) and
attach the right pattern class.  ``reuse`` multiplies the touch count for
algorithms that sweep an object several times within one task.

Footprints are interned: equal ``(mode, loads, stores, pattern)`` yield
one shared :class:`ObjectAccess`.  A workload spawns thousands of tasks
with a handful of distinct footprints, and the instances are frozen (the
precomputed traffic values depend only on the fields), so sharing them
is invisible to every reader.

One bounded table holds the instances under two kinds of key: the value
key above, and the helper's own arguments with the pattern by identity.
A repeat call is one probe of the second kind: no byte-to-count
conversion and no hashing of the mode enum or the pattern dataclass in
Python.  A hit counts only if the instance's pattern *is* the caller's,
so a pattern id reused after its object died can never alias.  Past
:data:`INTERN_MAX` keys the oldest go first: a long-lived process
sweeping many sizes keeps only the recent ones.
"""

from __future__ import annotations

import threading

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

#: Bound on the intern table's keys (both kinds together).
INTERN_MAX = 8192

#: Value keys and argument keys -> shared instance, oldest first.
_table: dict[tuple, ObjectAccess] = {}
#: Serializes misses (the insert and the eviction); hits take no lock.
_lock = threading.Lock()


def _count(nbytes: float, reuse: float) -> int:
    return max(0, int(round(nbytes * reuse / WORD_BYTES)))


def _intern(
    key: tuple, mode: AccessMode, loads: int, stores: int, pattern: AccessPattern
) -> ObjectAccess:
    """The shared instance for ``(mode, loads, stores, pattern)``, filed
    under the argument key ``key`` as well."""
    value_key = (mode, loads, stores, pattern)
    with _lock:
        acc = _table.get(value_key)
        if acc is None:
            acc = _table[value_key] = ObjectAccess(
                mode, loads=loads, stores=stores, pattern=pattern
            )
        _table[key] = acc
        while len(_table) > INTERN_MAX:
            del _table[next(iter(_table))]
    return acc


def read_footprint(
    nbytes: float, pattern: AccessPattern = STREAMING, reuse: float = 1.0
) -> ObjectAccess:
    """A read-only sweep over ``nbytes`` (times ``reuse``)."""
    key = ("r", nbytes, reuse, id(pattern))
    acc = _table.get(key)
    if acc is None or acc.pattern is not pattern:
        acc = _intern(key, AccessMode.READ, _count(nbytes, reuse), 0, pattern)
    return acc


def write_footprint(
    nbytes: float, pattern: AccessPattern = STREAMING, reuse: float = 1.0
) -> ObjectAccess:
    """A write-only sweep over ``nbytes`` (times ``reuse``)."""
    key = ("w", nbytes, reuse, id(pattern))
    acc = _table.get(key)
    if acc is None or acc.pattern is not pattern:
        acc = _intern(key, AccessMode.WRITE, 0, _count(nbytes, reuse), pattern)
    return acc


def update_footprint(
    read_bytes: float,
    written_bytes: float,
    pattern: AccessPattern = BLOCKED,
    reuse: float = 1.0,
) -> ObjectAccess:
    """A read-modify-write footprint."""
    key = ("u", read_bytes, written_bytes, reuse, id(pattern))
    acc = _table.get(key)
    if acc is None or acc.pattern is not pattern:
        acc = _intern(
            key,
            AccessMode.READWRITE,
            _count(read_bytes, reuse),
            _count(written_bytes, reuse),
            pattern,
        )
    return acc


def chase_footprint(n_hops: int, stores_per_hop: float = 0.0) -> ObjectAccess:
    """A pointer-chase of ``n_hops`` dependent loads (latency-bound)."""
    key = ("c", n_hops, stores_per_hop)
    acc = _table.get(key)
    if acc is None:
        stores = int(round(n_hops * stores_per_hop))
        mode = AccessMode.READWRITE if stores else AccessMode.READ
        acc = _intern(key, mode, int(n_hops), stores, POINTER_CHASE)
    return acc
