"""First-fit free-list allocator with coalescing.

The paper's user-level DRAM service bounds allocations within the DRAM
allowance and hands out address ranges; this allocator plays that role per
device.  It is deliberately simple (the paper notes data movement is
infrequent so allocator sophistication does not pay), but it does coalesce
on free so long runs of migrations do not strand the DRAM tier behind
fragmentation, and it exposes fragmentation statistics for tests.
"""

from __future__ import annotations

from bisect import insort

from repro.metrics.registry import bind
from repro.util.validation import require_nonnegative, require_positive

__all__ = ["FreeListAllocator", "OutOfMemoryError"]

#: Allocation granularity in bytes (one cache line).
ALIGNMENT: int = 64


class OutOfMemoryError(Exception):
    """Raised when an allocation cannot be satisfied from the free list."""


class FreeListAllocator:
    """First-fit allocator over a flat ``capacity``-byte address space."""

    def __init__(self, capacity: int):
        require_positive(capacity, "capacity")
        self.capacity = int(capacity)
        # Free list kept sorted by offset: list of [offset, size].
        self._free: list[list[int]] = [[0, self.capacity]]
        self._allocated: dict[int, int] = {}  # offset -> size
        #: Running sum of ``_allocated``'s sizes (``used_bytes`` in O(1)).
        self._used = 0
        # Telemetry instruments, bound per run by attach_metrics.
        self._instrumented = False

    def attach_metrics(self, registry, device: str) -> None:
        """Enable alloc/free/fragmentation instrumentation (telemetry)."""
        labels = {"device": device}
        self._allocs = bind(registry.counter, "allocator_allocs_total", labels,
                            "Successful allocations")
        self._ooms = bind(registry.counter, "allocator_oom_total", labels,
                          "Allocations refused for lack of a fitting extent")
        self._frees = bind(registry.counter, "allocator_frees_total", labels, "Frees")
        self._free_gauge = bind(registry.gauge, "allocator_free_bytes", labels,
                                "Free space on the device")
        self._frag_gauge = bind(registry.gauge, "allocator_fragmentation", labels,
                                "1 - largest free extent / total free")
        self._instrumented = True

    def _note_state(self) -> None:
        """Refresh the per-device gauges after a mutation."""
        self._free_gauge().set(self.free_bytes)
        self._frag_gauge().set(self.fragmentation)

    # ------------------------------------------------------------------
    def _round_up(self, size: int) -> int:
        return (int(size) + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; return the offset.

        Raises :class:`OutOfMemoryError` when no single free extent fits
        (even if total free space would suffice — external fragmentation
        is modelled, not papered over).
        """
        require_positive(size, "size")
        need = self._round_up(size)
        for entry in self._free:
            off, avail = entry
            if avail >= need:
                self._allocated[off] = need
                self._used += need
                if avail == need:
                    self._free.remove(entry)
                else:
                    entry[0] = off + need
                    entry[1] = avail - need
                if self._instrumented:
                    self._allocs().inc()
                    self._note_state()
                return off
        if self._instrumented:
            self._ooms().inc()
        raise OutOfMemoryError(
            f"cannot allocate {need} bytes: free={self.free_bytes}, "
            f"largest extent={self.largest_free_extent}"
        )

    def free(self, offset: int) -> int:
        """Free the allocation at ``offset``; return its size."""
        try:
            size = self._allocated.pop(offset)
        except KeyError:
            raise KeyError(f"offset {offset} is not allocated") from None
        self._used -= size
        insort(self._free, [offset, size])
        self._coalesce()
        if self._instrumented:
            self._frees().inc()
            self._note_state()
        return size

    def _coalesce(self) -> None:
        merged: list[list[int]] = []
        for off, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1][1] += size
            else:
                merged.append([off, size])
        self._free = merged

    def reduce_capacity(self, nbytes: int) -> int:
        """Permanently remove up to ``nbytes`` of *free* space (capacity
        loss: a failed rank, reservation pressure).

        Space is carved from the highest-addressed free extents first.
        Returns the bytes actually removed — at most the current free
        space; the caller must evict allocations and call again to cover
        any shortfall.  Existing allocations are never touched.
        """
        require_nonnegative(nbytes, "nbytes")
        removed = 0
        for entry in reversed(self._free):
            if removed >= nbytes:
                break
            take = min(entry[1], nbytes - removed)
            entry[1] -= take
            removed += take
        self._free = [e for e in self._free if e[1] > 0]
        self.capacity -= removed
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def largest_free_extent(self) -> int:
        return max((size for _, size in self._free), default=0)

    @property
    def fragmentation(self) -> float:
        """1 - largest_free/total_free; 0 when free space is one extent."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_extent / free

    def fits(self, size: int) -> bool:
        """Whether an allocation of ``size`` bytes would currently succeed."""
        need = self._round_up(size)
        return any(avail >= need for _, avail in self._free)

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property-based tests)."""
        assert self._used == sum(self._allocated.values()), "stale used-bytes count"
        total_free = sum(size for _, size in self._free)
        assert total_free + self.used_bytes == self.capacity, "space leak"
        prev_end = -1
        for off, size in self._free:
            assert size > 0, "empty free extent"
            assert off > prev_end, "free list out of order or overlapping"
            prev_end = off + size - 1
        # Allocations must not overlap free extents or each other.
        spans = sorted(
            [(o, o + s, "A") for o, s in self._allocated.items()]
            + [(o, o + s, "F") for o, s in self._free]
        )
        for (a_start, a_end, _), (b_start, _b_end, _) in zip(spans, spans[1:]):
            assert a_end <= b_start, "overlapping extents"
