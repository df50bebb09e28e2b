"""Free-list allocator: unit and property-based tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.allocator import ALIGNMENT, FreeListAllocator, OutOfMemoryError


class TestAllocatorBasics:
    def test_alloc_returns_aligned_offsets(self):
        assert ALIGNMENT == 64
        a = FreeListAllocator(1024)
        off1 = a.alloc(10)
        off2 = a.alloc(10)
        assert off1 % 64 == 0 and off2 % 64 == 0
        assert off2 >= off1 + 64

    def test_used_and_free_accounting(self):
        a = FreeListAllocator(1024)
        a.alloc(100)
        assert a.used_bytes == 128  # rounded to alignment
        assert a.free_bytes == 1024 - 128

    def test_oom_when_no_extent_fits(self):
        a = FreeListAllocator(256)
        a.alloc(256)
        with pytest.raises(OutOfMemoryError):
            a.alloc(1)

    def test_free_and_reuse(self):
        a = FreeListAllocator(256)
        off = a.alloc(256)
        a.free(off)
        assert a.alloc(256) == off

    def test_free_unknown_offset_raises(self):
        a = FreeListAllocator(256)
        with pytest.raises(KeyError):
            a.free(0)

    def test_coalescing_merges_neighbours(self):
        a = FreeListAllocator(3 * 64)
        offs = [a.alloc(64) for _ in range(3)]
        for off in offs:
            a.free(off)
        assert a.largest_free_extent == 3 * 64
        assert a.fragmentation == 0.0

    def test_external_fragmentation_is_modelled(self):
        a = FreeListAllocator(4 * 64)
        offs = [a.alloc(64) for _ in range(4)]
        a.free(offs[0])
        a.free(offs[2])
        # 128 bytes free but no 128-byte extent.
        assert a.free_bytes == 128
        assert not a.fits(128)
        assert a.fragmentation > 0.0
        with pytest.raises(OutOfMemoryError):
            a.alloc(128)

    def test_fits_matches_alloc(self):
        a = FreeListAllocator(256)
        assert a.fits(256)
        a.alloc(192)
        assert a.fits(64)
        assert not a.fits(65)

    def test_zero_or_negative_alloc_rejected(self):
        a = FreeListAllocator(256)
        with pytest.raises(ValueError):
            a.alloc(0)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 2000)),
        min_size=1,
        max_size=60,
    )
)
def test_allocator_invariants_hold_under_random_workload(ops):
    """Property: conservation of space, sorted/coalesced free list, no
    overlaps — regardless of the alloc/free sequence."""
    a = FreeListAllocator(16 * 1024)
    live: list[int] = []
    for kind, arg in ops:
        if kind == "alloc":
            try:
                live.append(a.alloc(arg))
            except OutOfMemoryError:
                pass
        elif live:
            a.free(live.pop(arg % len(live)))
        a.check_invariants()
    # free everything; allocator must return to pristine state
    for off in live:
        a.free(off)
    a.check_invariants()
    assert a.free_bytes == a.capacity
    assert a.largest_free_extent == a.capacity
