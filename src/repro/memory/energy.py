"""Energy and endurance accounting (the paper's power motivation).

The introduction's case for NVM is density and *near-zero static power*;
a placement policy therefore trades DRAM's speed against its refresh/
static draw.  This module computes, from an execution trace:

- **dynamic energy**: per-byte access energy per device and direction
  (NVM writes are the expensive ones), applied to the trace's ground-truth
  traffic and to migration copies;
- **static energy**: device power x makespan (DRAM pays refresh for its
  whole capacity; NVM pays near nothing);
- **endurance**: bytes written per NVM cell-lifetime proxy — the write
  amplification a migration-happy policy adds to a write-limited device.

Numbers follow the literature's ballparks (DRAM ~0.5 nJ/B dynamic,
~0.4 W/GiB static; PCM-class writes ~2-10 nJ/B, static ~0), fixed for
the one emulated platform.  The model is deliberately first-order: energy
follows traffic and time, which the simulator tracks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.device import DeviceKind, MemoryDevice
from repro.tasking.trace import ExecutionTrace
from repro.util.numeric import running_total
from repro.util.units import GIB

__all__ = ["EnergyReport"]

#: Dynamic energy per byte read/written (joules/byte).
DRAM_READ_ENERGY: float = 0.5e-9
DRAM_WRITE_ENERGY: float = 0.6e-9
NVM_READ_ENERGY: float = 1.0e-9
NVM_WRITE_ENERGY: float = 6.0e-9
#: Static power per GiB of capacity (watts) — DRAM refresh vs NVM ~0.
DRAM_STATIC_W_PER_GIB: float = 0.4
NVM_STATIC_W_PER_GIB: float = 0.01


def _access_energy(device: MemoryDevice, read_bytes: float, write_bytes: float) -> float:
    if device.kind is DeviceKind.DRAM:
        return read_bytes * DRAM_READ_ENERGY + write_bytes * DRAM_WRITE_ENERGY
    return read_bytes * NVM_READ_ENERGY + write_bytes * NVM_WRITE_ENERGY


def _static_energy(device: MemoryDevice, seconds: float) -> float:
    gib = device.capacity_bytes / GIB
    w = DRAM_STATIC_W_PER_GIB if device.kind is DeviceKind.DRAM else NVM_STATIC_W_PER_GIB
    return w * gib * seconds


@dataclass
class EnergyReport:
    """Per-run energy/endurance accounting."""

    dynamic_j: float = 0.0
    static_j: float = 0.0
    migration_j: float = 0.0
    nvm_bytes_written: float = 0.0  #: endurance proxy

    @property
    def total_j(self) -> float:
        return self.dynamic_j + self.static_j + self.migration_j

    @classmethod
    def from_trace(
        cls,
        trace: ExecutionTrace,
        dram: MemoryDevice,
        nvm: MemoryDevice,
    ) -> "EnergyReport":
        """Account a finished run.

        Task traffic goes to the tier each object resided on at task
        start: the dispatched rows of the trace's access table, in the
        order of its DRAM flags, are priced by flag and added strictly
        left to right (``np.cumsum``, bitwise the scalar ``+=`` walk;
        ``np.sum`` adds pairwise).  Under Memory Mode every flag is 0, so
        cache hits are charged at NVM rates; charging them as DRAM would
        change only the per-row coefficients.  Migration copies charge a
        read on the source and a write on the destination.
        """
        rep = cls()
        csr = trace.accesses
        if len(trace.index) != len(trace.tasks) or (csr is None and trace.tasks):
            raise ValueError(
                "trace records no access table rows for its tasks "
                "(`accesses` and one `index` per task, as Executor.run does)"
            )
        if csr is not None:
            rows, _ = csr.gather(np.array(trace.index, dtype=np.int64))
            on_dram = np.frombuffer(trace.on_dram, dtype=np.bool_)
            rb = csr.read_bytes[rows]
            wb = csr.write_bytes[rows]
            read_coef = np.where(on_dram, DRAM_READ_ENERGY, NVM_READ_ENERGY)
            write_coef = np.where(on_dram, DRAM_WRITE_ENERGY, NVM_WRITE_ENERGY)
            rep.dynamic_j = running_total(rb * read_coef + wb * write_coef)
            rep.nvm_bytes_written = running_total(wb[~on_dram])
        if trace.migrations is not None:
            for m in trace.migrations.records:
                src = dram if m.src == dram.name else nvm
                dst = dram if m.dst == dram.name else nvm
                rep.migration_j += _access_energy(src, m.nbytes, 0)
                rep.migration_j += _access_energy(dst, 0, m.nbytes)
                if dst.kind is DeviceKind.NVM:
                    rep.nvm_bytes_written += m.nbytes
        rep.static_j += _static_energy(dram, trace.makespan)
        rep.static_j += _static_energy(nvm, trace.makespan)
        return rep

    def summary(self) -> dict[str, float]:
        return {
            "dynamic_j": self.dynamic_j,
            "static_j": self.static_j,
            "migration_j": self.migration_j,
            "total_j": self.total_j,
            "nvm_mib_written": self.nvm_bytes_written / (1 << 20),
        }
