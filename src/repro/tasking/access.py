"""Access modes and per-object task footprints.

An :class:`ObjectAccess` is the *ground truth* of how one task touches one
data object: how many load/store instructions it issues, what fraction the
CPU caches absorb, and how much memory-level parallelism its misses have.
The executor derives task timing from it; the runtime's models never read
it directly — they only see what the sampling profiler reports.

:class:`AccessPattern` bundles the locality/parallelism knobs for the
recurring pattern classes (streaming, blocked compute, pointer chasing,
random), so workload generators say *what kind* of access a task performs
and get consistent ``hit_ratio``/``mlp`` values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.util.units import CACHELINE_BYTES
from repro.util.validation import require, require_nonnegative, require_positive

__all__ = ["AccessMode", "AccessPattern", "ObjectAccess"]


class AccessMode(enum.Enum):
    """Declared dependence mode of a task argument (OpenMP depend-clause style)."""

    READ = "read"
    WRITE = "write"
    READWRITE = "readwrite"

    @property
    def reads(self) -> bool:
        return self is not AccessMode.WRITE

    @property
    def writes(self) -> bool:
        return self is not AccessMode.READ


@dataclass(frozen=True)
class AccessPattern:
    """Locality/parallelism profile of a class of memory accesses."""

    name: str
    hit_ratio: float  #: fraction of accesses absorbed by CPU caches
    mlp: float  #: memory-level parallelism of the misses

    def __post_init__(self) -> None:
        require(0.0 <= self.hit_ratio < 1.0, "hit_ratio must be in [0, 1)")
        require_positive(self.mlp, "mlp")


# Loads/stores are counted at 64-bit-word granularity while misses cost a
# 64-byte line, so a *pure sequential sweep* already hits 7/8 = 0.875 of
# its word accesses in the line brought in by the first — hit ratios below
# are calibrated around that floor.

#: Streaming (STREAM-like): spatial locality only, deeply pipelined misses
#: — bandwidth-sensitive on NVM (traffic == bytes swept).
STREAMING = AccessPattern("streaming", hit_ratio=0.875, mlp=16.0)
#: Cache-blocked compute (GEMM-like): spatial + strong temporal reuse.
BLOCKED = AccessPattern("blocked", hit_ratio=0.98, mlp=8.0)
#: Pointer chasing: every hop a dependent fresh-line miss, no MLP —
#: latency-sensitive on NVM.
POINTER_CHASE = AccessPattern("pointer-chase", hit_ratio=0.05, mlp=1.1)
#: Random/indirect word gathers: nearly every access its own line (traffic
#: is 8x the bytes touched, as real random access suffers), some MLP.
RANDOM = AccessPattern("random", hit_ratio=0.10, mlp=4.0)

PATTERNS: dict[str, AccessPattern] = {
    p.name: p for p in (STREAMING, BLOCKED, POINTER_CHASE, RANDOM)
}


@dataclass(frozen=True)
class ObjectAccess:
    """Ground-truth footprint of one task on one data object."""

    mode: AccessMode
    loads: int  #: load instructions touching the object (pre-cache)
    stores: int  #: store instructions touching the object (pre-cache)
    pattern: AccessPattern = BLOCKED
    #: Fraction range [lo, hi) of the object this access covers, for
    #: regular 1-D accesses; ``None`` means the whole object.  Consumed by
    #: the large-object partitioning optimization.
    span: tuple[float, float] | None = None
    #: When False, dependence inference skips this access: the workload
    #: declares ordering itself via :meth:`TaskGraph.add_edge` (used for
    #: span-disjoint parallel accesses to one monolithic array, which
    #: object-granularity inference would falsely serialize).
    infer_deps: bool = True

    # Derived traffic, filled once by ``__post_init__``: footprints are
    # immutable, and the access table (the timing law's operands) and the
    # sampling profiler read these for every (task, object) pair.
    accesses: int = field(init=False, repr=False, compare=False)
    miss_loads: float = field(init=False, repr=False, compare=False)
    miss_stores: float = field(init=False, repr=False, compare=False)
    read_traffic_bytes: float = field(init=False, repr=False, compare=False)
    write_traffic_bytes: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_nonnegative(self.loads, "loads")
        require_nonnegative(self.stores, "stores")
        if self.mode is AccessMode.READ and self.stores:
            raise ValueError("READ access cannot have stores")
        if self.mode is AccessMode.WRITE and self.loads:
            raise ValueError("WRITE access cannot have loads")
        if self.span is not None:
            lo, hi = self.span
            require(0.0 <= lo < hi <= 1.0, f"invalid span {self.span}")
        # Written through ``__dict__`` because the dataclass is frozen.
        d = self.__dict__
        miss = 1.0 - self.pattern.hit_ratio
        d["accesses"] = self.loads + self.stores
        ml = d["miss_loads"] = self.loads * miss
        ms = d["miss_stores"] = self.stores * miss
        d["read_traffic_bytes"] = ml * CACHELINE_BYTES
        d["write_traffic_bytes"] = ms * CACHELINE_BYTES

    def scaled(self, factor: float) -> "ObjectAccess":
        """A footprint with access counts scaled by ``factor`` (chunking)."""
        require_positive(factor, "factor")
        return replace(
            self,
            loads=int(round(self.loads * factor)),
            stores=int(round(self.stores * factor)),
        )
