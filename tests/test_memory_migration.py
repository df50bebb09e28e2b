"""Migration engine: copy costs, helper-thread lane, overlap accounting."""

import pytest

from repro.memory.migration import (
    MIGRATION_OVERHEAD_S,
    MigrationEngine,
    MigrationRecord,
    copy_time,
)
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.util.units import MIB

from tests.reference_executor import available_at, in_flight_source, note_first_use


@pytest.fixture
def devices():
    return dram(), nvm_bandwidth_scaled(0.5)


class TestCopyTime:
    def test_uses_min_of_src_read_dst_write(self, devices):
        d, n = devices
        bw = min(n.read_bandwidth, d.write_bandwidth)
        t = copy_time(int(64 * MIB), n, d)
        assert t == 64 * MIB / bw + MIGRATION_OVERHEAD_S

    def test_overhead_added(self, devices):
        d, n = devices
        assert copy_time(0, n, d) == pytest.approx(MIGRATION_OVERHEAD_S)

    def test_negative_size_rejected(self, devices):
        d, n = devices
        with pytest.raises(ValueError):
            copy_time(-1, n, d)


class TestEngineLane:
    def test_copies_serialize_on_the_lane(self, devices):
        d, n = devices
        eng = MigrationEngine()
        r1 = eng.schedule(1, int(8 * MIB), n, d, request_time=0.0)
        r2 = eng.schedule(2, int(8 * MIB), n, d, request_time=0.0)
        bw = min(n.read_bandwidth, d.write_bandwidth)
        assert r1.duration == pytest.approx(8 * MIB / bw + MIGRATION_OVERHEAD_S)
        assert r2.start_time == pytest.approx(r1.end_time)
        assert eng.lane_free_at == pytest.approx(r2.end_time)

    def test_earliest_start_respected(self, devices):
        d, n = devices
        eng = MigrationEngine()
        r = eng.schedule(1, int(MIB), n, d, request_time=0.0, earliest_start=0.5)
        assert r.start_time == pytest.approx(0.5)

    def test_available_at_tracks_last_migration(self, devices):
        """The per-object indices the executor reads inline agree with a
        backward scan of the records."""
        d, n = devices
        eng = MigrationEngine()
        assert available_at(eng, 99) == eng._available_at.get(99, 0.0) == 0.0
        eng.schedule(7, int(MIB), n, d, request_time=0.0)
        r = eng.schedule(7, int(MIB), d, n, request_time=0.0)
        assert available_at(eng, 7) == eng._available_at[7] == r.end_time
        assert eng._last_record[7] is r
        assert eng._pending_first_use[7][-1] is r

    def test_in_flight_source(self, devices):
        d, n = devices
        eng = MigrationEngine()
        r = eng.schedule(7, int(8 * MIB), n, d, request_time=0.0)
        mid = (r.start_time + r.end_time) / 2
        assert in_flight_source(eng, 7, mid) == n.name
        assert in_flight_source(eng, 7, r.end_time + 1e-9) is None
        assert in_flight_source(eng, 42, 0.0) is None


class TestOverlapAccounting:
    def test_fully_overlapped_when_needed_after_completion(self, devices):
        d, n = devices
        eng = MigrationEngine()
        r = eng.schedule(1, int(MIB), n, d, request_time=0.0)
        note_first_use(eng, 1, r.end_time + 1.0)
        assert r.exposed == 0.0
        assert eng.overlap_fraction() == pytest.approx(1.0)

    def test_exposed_when_needed_immediately(self, devices):
        d, n = devices
        eng = MigrationEngine()
        r = eng.schedule(1, int(8 * MIB), n, d, request_time=0.0)
        note_first_use(eng, 1, 0.0)
        assert r.exposed == pytest.approx(r.duration)
        assert eng.overlap_fraction() == pytest.approx(0.0)

    def test_partial_overlap(self, devices):
        d, n = devices
        eng = MigrationEngine()
        r = eng.schedule(1, int(8 * MIB), n, d, request_time=0.0)
        note_first_use(eng, 1, r.start_time + r.duration / 2)
        assert eng.overlap_fraction() == pytest.approx(0.5, abs=0.01)

    def test_statistics_aggregate(self, devices):
        d, n = devices
        eng = MigrationEngine()
        eng.schedule(1, int(MIB), n, d, request_time=0.0)
        eng.schedule(2, int(2 * MIB), n, d, request_time=0.0)
        assert eng.migration_count == 2
        assert eng.migrated_bytes == int(3 * MIB)
        assert eng.total_copy_time() > 0

    def test_never_used_counts_as_fully_overlapped(self, devices):
        d, n = devices
        eng = MigrationEngine()
        eng.schedule(1, int(MIB), n, d, request_time=0.0)
        assert eng.overlap_fraction() == pytest.approx(1.0)


def test_record_duration_property():
    r = MigrationRecord(1, 100, "a", "b", 0.0, 1.0, 3.0)
    assert r.duration == pytest.approx(2.0)
