"""Heterogeneous memory simulator (the hardware substrate).

This package stands in for the physical DRAM+NVM platform of the paper
(Quartz-emulated NVM / Optane PMM).  It models per-device capacity,
asymmetric read/write latency and bandwidth, allocation, migration cost,
bandwidth contention, and a hardware DRAM-cache mode — everything the
runtime's decisions can observe or affect, in virtual time.
"""

from repro.memory.device import MemoryDevice, DeviceKind
from repro.memory.presets import (
    dram,
    numa_emulated,
    nvm_bandwidth_scaled,
    nvm_latency_scaled,
    stt_ram,
    pcram,
    reram,
    optane_pm,
    NVM_CONFIGS,
)
from repro.memory.allocator import FreeListAllocator, OutOfMemoryError
from repro.memory.hms import HeterogeneousMemorySystem, Placement
from repro.memory.migration import (
    MigrationEngine,
    MigrationRecord,
    copy_time,
)
from repro.memory.cache import DRAMCacheModel

__all__ = [
    "MemoryDevice",
    "DeviceKind",
    "dram",
    "numa_emulated",
    "nvm_bandwidth_scaled",
    "nvm_latency_scaled",
    "stt_ram",
    "pcram",
    "reram",
    "optane_pm",
    "NVM_CONFIGS",
    "FreeListAllocator",
    "OutOfMemoryError",
    "HeterogeneousMemorySystem",
    "Placement",
    "MigrationEngine",
    "MigrationRecord",
    "copy_time",
    "DRAMCacheModel",
]
