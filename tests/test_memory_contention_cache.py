"""Bandwidth contention model and the hardware DRAM-cache model."""

import pytest

from repro.memory.cache import CONFLICT_FACTOR, FILL_PENALTY, DRAMCacheModel
from repro.memory.contention import SATURATION_STREAMS, share, slowdown
from repro.util.units import MIB


class TestContention:
    def test_single_stream_full_bandwidth(self):
        assert share(1) == pytest.approx(1.0)
        assert slowdown(1) == pytest.approx(1.0)

    def test_below_saturation_no_sharing(self):
        assert SATURATION_STREAMS == 6.0
        assert share(6) == pytest.approx(1.0)

    def test_beyond_saturation_processor_sharing(self):
        assert share(12) == pytest.approx(0.5)
        assert slowdown(12) == pytest.approx(2.0)

    def test_share_monotone_nonincreasing(self):
        shares = [share(n) for n in range(1, 40)]
        assert all(a >= b for a, b in zip(shares, shares[1:]))

    def test_slowdown_is_exactly_inverse_share(self):
        # The executor's branch form of slowdown() must match 1 / share()
        # bit for bit, or contended task times would drift.
        for n in range(1, 65):
            assert slowdown(n) == 1.0 / share(n), n

    def test_nonpositive_stream_count_clamped(self):
        assert share(0) == share(1)


class TestDRAMCacheModel:
    def test_hit_rate_full_fit(self):
        m = DRAMCacheModel(dram_capacity_bytes=int(256 * MIB))
        assert m.hit_rate(int(128 * MIB)) == pytest.approx(1.0 - CONFLICT_FACTOR)

    def test_hit_rate_capacity_bound(self):
        m = DRAMCacheModel(dram_capacity_bytes=int(256 * MIB))
        assert m.hit_rate(int(512 * MIB)) == pytest.approx(0.5 * (1.0 - CONFLICT_FACTOR))

    def test_conflict_factor_shaves_hits(self):
        m = DRAMCacheModel(dram_capacity_bytes=int(256 * MIB))
        assert CONFLICT_FACTOR == 0.15
        assert m.hit_rate(int(128 * MIB)) == pytest.approx(0.85)

    def test_blend_bounds(self):
        m = DRAMCacheModel(dram_capacity_bytes=int(256 * MIB))
        t_d, t_n = 1.0, 4.0
        # tiny working set: near-DRAM; huge: near NVM (plus fill penalty)
        fast = m.blend(t_d, t_n, int(1 * MIB))
        slow = m.blend(t_d, t_n, int(64 * 1024 * MIB))
        assert t_d <= fast < slow
        assert slow <= t_n + FILL_PENALTY * t_d + 1e-9

    def test_blend_monotone_in_working_set(self):
        m = DRAMCacheModel(dram_capacity_bytes=int(256 * MIB))
        sizes = [int(s * MIB) for s in (64, 128, 256, 512, 1024)]
        vals = [m.blend(1.0, 4.0, s) for s in sizes]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DRAMCacheModel(dram_capacity_bytes=0)
        with pytest.raises(TypeError):
            DRAMCacheModel(dram_capacity_bytes=1, conflict_factor=0.2)
