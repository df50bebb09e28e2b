"""Memory device model and presets."""

import pytest

from repro.memory.device import MISS_BASE_LATENCY_S, DeviceKind, MemoryDevice
from repro.memory.presets import (
    NVM_CONFIGS,
    dram,
    nvm_bandwidth_scaled,
    nvm_latency_scaled,
    optane_pm,
    pcram,
    reram,
    stt_ram,
)
from repro.util.units import GIB, MIB, NS

from tests.reference_executor import bandwidth_time, latency_time


class TestMemoryDevice:
    def test_from_spec_converts_units(self):
        d = MemoryDevice.from_spec("d", DeviceKind.DRAM, MIB, 10, 20, 10.0, 9.0)
        assert d.read_latency_s == pytest.approx(10 * NS)
        assert d.write_latency_s == pytest.approx(20 * NS)
        assert d.read_bandwidth == pytest.approx(1e10)
        assert d.write_bandwidth == pytest.approx(9e9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MemoryDevice.from_spec("d", DeviceKind.DRAM, 0, 10, 10, 10, 10)
        with pytest.raises(ValueError):
            MemoryDevice.from_spec("d", DeviceKind.DRAM, MIB, -1, 10, 10, 10)

    def test_scaled_latency(self):
        base = dram()
        slow = base.scaled(latency_scale=4.0)
        assert slow.read_latency_s == pytest.approx(4 * base.read_latency_s)
        assert slow.read_bandwidth == pytest.approx(base.read_bandwidth)

    def test_scaled_bandwidth(self):
        base = dram()
        slow = base.scaled(bandwidth_scale=0.25)
        assert slow.read_bandwidth == pytest.approx(base.read_bandwidth / 4)
        assert slow.read_latency_s == pytest.approx(base.read_latency_s)

    def test_scaled_rename_and_rekind(self):
        d = dram().scaled(name="x", kind=DeviceKind.NVM, capacity_bytes=GIB)
        assert d.name == "x" and d.kind is DeviceKind.NVM
        assert d.capacity_bytes == GIB

    def test_bandwidth_time(self):
        d = dram()
        t = bandwidth_time(d, d.read_bandwidth, 0)
        assert t == pytest.approx(1.0)

    def test_latency_time_includes_base_and_mlp(self):
        d = dram()
        one = latency_time(d, 1, 0, mlp=1.0)
        assert one == pytest.approx(MISS_BASE_LATENCY_S + d.read_latency_s)
        assert latency_time(d, 1, 0, mlp=2.0) == pytest.approx(one / 2)

    def test_latency_time_write_asymmetry(self):
        d = pcram()
        reads = latency_time(d, 10, 0)
        writes = latency_time(d, 0, 10)
        assert writes > reads  # PCRAM writes are much slower


class TestPresets:
    def test_dram_faster_than_all_nvm(self):
        d = dram()
        for nv in (stt_ram(), pcram(), reram(), optane_pm()):
            assert nv.read_bandwidth < d.read_bandwidth
            assert nv.read_latency_s > d.read_latency_s
            assert nv.kind is DeviceKind.NVM

    def test_optane_read_write_asymmetry(self):
        o = optane_pm()
        assert o.read_bandwidth / o.write_bandwidth == pytest.approx(3.0, rel=0.01)

    def test_bandwidth_scaled_family(self):
        half = nvm_bandwidth_scaled(0.5)
        assert half.read_bandwidth == pytest.approx(dram().read_bandwidth / 2)
        assert half.read_latency_s == pytest.approx(dram().read_latency_s)
        assert half.kind is DeviceKind.NVM

    def test_latency_scaled_family(self):
        quad = nvm_latency_scaled(4.0)
        assert quad.read_latency_s == pytest.approx(4 * dram().read_latency_s)
        assert quad.read_bandwidth == pytest.approx(dram().read_bandwidth)

    def test_nvm_configs_registry(self):
        configs = NVM_CONFIGS()
        assert {"bw-1/2", "lat-4x", "optane", "pcram"} <= set(configs)
        for dev in configs.values():
            assert dev.kind is DeviceKind.NVM
