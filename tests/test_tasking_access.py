"""Access modes, patterns, footprints and their ground-truth timing."""

import pytest

from repro.memory.device import MISS_BASE_LATENCY_S
from repro.memory.presets import dram, nvm_bandwidth_scaled, nvm_latency_scaled
from repro.tasking.access import (
    PATTERNS,
    POINTER_CHASE,
    RANDOM,
    STREAMING,
    AccessMode,
    AccessPattern,
    ObjectAccess,
)
from repro.tasking.footprints import (
    WORD_BYTES,
    chase_footprint,
    read_footprint,
    update_footprint,
    write_footprint,
)
from repro.util.units import MIB

from tests.reference_executor import memory_time
from tests.reference_graph import merge_accesses


class TestAccessMode:
    def test_reads_writes_flags(self):
        assert AccessMode.READ.reads and not AccessMode.READ.writes
        assert AccessMode.WRITE.writes and not AccessMode.WRITE.reads
        assert AccessMode.READWRITE.reads and AccessMode.READWRITE.writes


class TestObjectAccess:
    def test_mode_count_consistency_enforced(self):
        with pytest.raises(ValueError):
            ObjectAccess(AccessMode.READ, loads=1, stores=1)
        with pytest.raises(ValueError):
            ObjectAccess(AccessMode.WRITE, loads=1, stores=1)

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            ObjectAccess(AccessMode.READ, loads=1, stores=0, span=(0.5, 0.2))
        with pytest.raises(ValueError):
            ObjectAccess(AccessMode.READ, loads=1, stores=0, span=(-0.1, 0.5))

    def test_miss_counts_follow_hit_ratio(self):
        acc = ObjectAccess(AccessMode.READ, loads=1000, stores=0, pattern=STREAMING)
        assert acc.miss_loads == pytest.approx(1000 * (1 - STREAMING.hit_ratio))

    def test_streaming_traffic_equals_bytes_swept(self):
        """The word-granularity/line-size convention: a pure sequential
        sweep's main-memory traffic equals the bytes touched."""
        nbytes = 8 * MIB
        acc = read_footprint(nbytes, STREAMING)
        assert acc.read_traffic_bytes == pytest.approx(nbytes, rel=0.01)

    def test_random_traffic_is_amplified(self):
        nbytes = MIB
        acc = read_footprint(nbytes, RANDOM)
        # random word gathers pull a full line per access: ~8x the bytes
        assert acc.read_traffic_bytes > 5 * nbytes

    def test_scaled(self):
        acc = ObjectAccess(AccessMode.READWRITE, loads=100, stores=50)
        half = acc.scaled(0.5)
        assert half.loads == 50 and half.stores == 25
        assert half.pattern is acc.pattern


class TestGroundTruthTiming:
    """Roofline physics of the scalar reference law; the differential in
    test_profiling.py pins the executor's vectorized law to it bitwise."""

    def test_streaming_bandwidth_bound(self):
        acc = read_footprint(64 * MIB, STREAMING)
        d = dram()
        t = memory_time(acc, d)
        assert t == pytest.approx(acc.read_traffic_bytes / d.read_bandwidth, rel=0.05)

    def test_chase_latency_bound(self):
        acc = chase_footprint(100_000)
        d = dram()
        expected = (
            acc.miss_loads * (MISS_BASE_LATENCY_S + d.read_latency_s) / POINTER_CHASE.mlp
        )
        assert memory_time(acc, d) == pytest.approx(expected, rel=0.05)

    def test_bw_scaling_hits_streaming_not_chase(self):
        stream = read_footprint(64 * MIB, STREAMING)
        chase = chase_footprint(100_000)
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        assert memory_time(stream, n) / memory_time(stream, d) == pytest.approx(2.0, rel=0.05)
        assert memory_time(chase, n) / memory_time(chase, d) == pytest.approx(1.0, rel=0.05)

    def test_lat_scaling_hits_chase_not_streaming(self):
        stream = read_footprint(64 * MIB, STREAMING)
        chase = chase_footprint(100_000)
        d, n = dram(), nvm_latency_scaled(4.0)
        assert memory_time(stream, n) / memory_time(stream, d) == pytest.approx(1.0, rel=0.05)
        ratio = memory_time(chase, n) / memory_time(chase, d)
        assert 1.5 < ratio < 3.0  # diluted by the fixed base miss cost

    def test_contention_slowdown_applies_to_bandwidth_term_only(self):
        stream = read_footprint(64 * MIB, STREAMING)
        chase = chase_footprint(100_000)
        d = dram()
        assert memory_time(stream, d, bw_slowdown=2.0) == pytest.approx(
            2 * memory_time(stream, d), rel=0.05
        )
        assert memory_time(chase, d, bw_slowdown=2.0) == pytest.approx(
            memory_time(chase, d), rel=0.05
        )


class TestMerge:
    def test_merge_modes_and_counts(self):
        a = ObjectAccess(AccessMode.READ, loads=10, stores=0)
        b = ObjectAccess(AccessMode.WRITE, loads=0, stores=5)
        m = merge_accesses(a, b)
        assert m.mode is AccessMode.READWRITE
        assert m.loads == 10 and m.stores == 5

    def test_merge_spans_union(self):
        a = ObjectAccess(AccessMode.READ, loads=1, stores=0, span=(0.0, 0.25))
        b = ObjectAccess(AccessMode.READ, loads=1, stores=0, span=(0.5, 0.75))
        m = merge_accesses(a, b)
        assert m.span == (0.0, 0.75)

    def test_merge_span_with_none_is_none(self):
        a = ObjectAccess(AccessMode.READ, loads=1, stores=0, span=(0.0, 0.25))
        b = ObjectAccess(AccessMode.READ, loads=1, stores=0)
        assert merge_accesses(a, b).span is None

    def test_merge_pattern_from_heavier_side(self):
        a = ObjectAccess(AccessMode.READ, loads=100, stores=0, pattern=RANDOM)
        b = ObjectAccess(AccessMode.READ, loads=1, stores=0, pattern=STREAMING)
        assert merge_accesses(a, b).pattern is RANDOM


class TestFootprints:
    def test_read_footprint_word_counts(self):
        acc = read_footprint(800, reuse=2.0)
        assert acc.loads == 200 and acc.stores == 0

    def test_write_footprint(self):
        acc = write_footprint(WORD_BYTES * 7)
        assert acc.stores == 7 and acc.loads == 0

    def test_update_footprint(self):
        acc = update_footprint(80, 40)
        assert acc.mode is AccessMode.READWRITE
        assert acc.loads == 10 and acc.stores == 5

    def test_chase_footprint(self):
        acc = chase_footprint(1000, stores_per_hop=0.1)
        assert acc.loads == 1000 and acc.stores == 100
        assert acc.pattern is POINTER_CHASE

    def test_patterns_registry(self):
        assert set(PATTERNS) == {"streaming", "blocked", "pointer-chase", "random"}

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            AccessPattern("bad", hit_ratio=1.5, mlp=1)
        with pytest.raises(ValueError):
            AccessPattern("bad", hit_ratio=0.5, mlp=0)
