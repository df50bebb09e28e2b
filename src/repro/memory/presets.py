"""Device presets from the paper line's Table 1 (NVM technology survey).

The table quotes read/write *time* in ns and random read/write *bandwidth*
in MB/s for DRAM, STT-RAM, PCRAM, ReRAM and Intel Optane PM.  Where the
table gives a range we take a representative mid/high value and note it.
Absolute numbers matter less than the DRAM:NVM ratios, which these presets
preserve.

Two *derived* families mirror the emulation sweeps:

- ``nvm_bandwidth_scaled(frac)``: DRAM latency, bandwidth times ``frac``
  (the "1/2, 1/4, 1/8 DRAM BW" configurations).
- ``nvm_latency_scaled(mult)``: DRAM bandwidth, latency times ``mult``
  (the "2x, 4x, 8x DRAM LAT" configurations).
"""

from __future__ import annotations

from repro.memory.device import DeviceKind, MemoryDevice
from repro.util.units import GIB, MIB

__all__ = [
    "DEFAULT_DRAM_CAPACITY",
    "DEFAULT_NVM_CAPACITY",
    "dram",
    "numa_emulated",
    "stt_ram",
    "pcram",
    "reram",
    "optane_pm",
    "nvm_bandwidth_scaled",
    "nvm_latency_scaled",
    "NVM_CONFIGS",
]

#: The capacities used throughout the evaluation (256 MB DRAM / 16 GB NVM,
#: matching the paper line's basic-performance-test configuration).
DEFAULT_DRAM_CAPACITY: int = 256 * MIB
DEFAULT_NVM_CAPACITY: int = 16 * GIB


def dram(capacity_bytes: int = DEFAULT_DRAM_CAPACITY) -> MemoryDevice:
    """DRAM: 10 ns read/write, 10 GB/s read, 9 GB/s write."""
    return MemoryDevice.from_spec(
        "dram", DeviceKind.DRAM, capacity_bytes, 10.0, 10.0, 10.0, 9.0
    )


def stt_ram() -> MemoryDevice:
    """STT-RAM (ITRS'13): 60/80 ns, 0.8/0.6 GB/s."""
    return MemoryDevice.from_spec(
        "stt-ram", DeviceKind.NVM, DEFAULT_NVM_CAPACITY, 60.0, 80.0, 0.8, 0.6
    )


def pcram() -> MemoryDevice:
    """PCRAM: 20–200 ns read (we use 100), 80–10000 ns write (we use 500),
    0.2–0.8 GB/s read (we use 0.5), 0.1–0.8 GB/s write (we use 0.3)."""
    return MemoryDevice.from_spec(
        "pcram", DeviceKind.NVM, DEFAULT_NVM_CAPACITY, 100.0, 500.0, 0.5, 0.3
    )


def reram() -> MemoryDevice:
    """ReRAM: 10–1000 ns read (we use 300), 10–10000 ns write (we use 1000),
    0.02–0.1 GB/s read (we use 0.06), 0.001–0.008 GB/s write (we use 0.005)."""
    return MemoryDevice.from_spec(
        "reram", DeviceKind.NVM, DEFAULT_NVM_CAPACITY, 300.0, 1000.0, 0.06, 0.005
    )


def optane_pm() -> MemoryDevice:
    """Intel Optane DC PMM: 174–304 ns read (we use 300), 100–190 ns write
    (we use 190 — writes land in the controller buffer, hence the low
    latency), 3.9 GB/s read, 1.3 GB/s write.

    The headline Optane property the runtime must exploit is the 3x
    read/write bandwidth asymmetry.
    """
    return MemoryDevice.from_spec(
        "optane-pm", DeviceKind.NVM, DEFAULT_NVM_CAPACITY, 300.0, 190.0, 3.9, 1.3
    )


def numa_emulated() -> MemoryDevice:
    """The paper's NUMA-based NVM emulation for strong-scaling tests:
    a remote socket's memory as NVM — 60 % of DRAM bandwidth and 1.89x
    DRAM latency."""
    return dram().scaled(
        name="nvm-numa",
        kind=DeviceKind.NVM,
        capacity_bytes=DEFAULT_NVM_CAPACITY,
        bandwidth_scale=0.6,
        latency_scale=1.89,
    )


def nvm_bandwidth_scaled(fraction: float) -> MemoryDevice:
    """Emulated NVM with DRAM latency and ``fraction`` of DRAM bandwidth."""
    return dram().scaled(
        name=f"nvm-bw-{fraction:g}",
        kind=DeviceKind.NVM,
        capacity_bytes=DEFAULT_NVM_CAPACITY,
        bandwidth_scale=fraction,
    )


def nvm_latency_scaled(multiplier: float) -> MemoryDevice:
    """Emulated NVM with DRAM bandwidth and ``multiplier`` times DRAM latency."""
    return dram().scaled(
        name=f"nvm-lat-{multiplier:g}x",
        kind=DeviceKind.NVM,
        capacity_bytes=DEFAULT_NVM_CAPACITY,
        latency_scale=multiplier,
    )


def NVM_CONFIGS() -> dict[str, MemoryDevice]:
    """The named NVM configurations used across the experiment suite."""
    return {
        "bw-1/2": nvm_bandwidth_scaled(0.5),
        "bw-1/4": nvm_bandwidth_scaled(0.25),
        "bw-1/8": nvm_bandwidth_scaled(0.125),
        "lat-2x": nvm_latency_scaled(2.0),
        "lat-4x": nvm_latency_scaled(4.0),
        "lat-8x": nvm_latency_scaled(8.0),
        "optane": optane_pm(),
        "stt-ram": stt_ram(),
        "pcram": pcram(),
        "reram": reram(),
    }
