"""Memory device model.

A :class:`MemoryDevice` captures the four numbers the paper's models care
about — read/write latency and read/write bandwidth — plus capacity.  NVM
read/write asymmetry (up to 50x latency, 8x bandwidth for PCRAM in the
paper's Table 1) is first-class: every number is kept separately for
loads and stores.  The ground-truth timing law that reads them is
:func:`repro.tasking.executor.law_times`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.util.units import NS, bytes_per_second
from repro.util.validation import require_positive


class DeviceKind(enum.Enum):
    """Role of a device in the two-tier heterogeneous memory system."""

    DRAM = "dram"
    NVM = "nvm"


#: Fixed CPU-side cost of a main-memory miss (cache-hierarchy traversal,
#: queueing, on-die interconnect) added on top of the *device* latency.
#: Datasheets quote ~10 ns for a DRAM array access, but load-to-use latency
#: on a real machine is several times that; emulated "4x DRAM latency"
#: scales only the device part, exactly as Quartz's injected delays do.
MISS_BASE_LATENCY_S: float = 30.0 * 1e-9


@dataclass(frozen=True)
class MemoryDevice:
    """An immutable description of one memory tier.

    Parameters use base units (seconds, bytes, bytes/second).  Use
    :meth:`from_spec` to build one from datasheet-style units
    (nanoseconds and GB/s).
    """

    name: str
    kind: DeviceKind
    capacity_bytes: int
    read_latency_s: float
    write_latency_s: float
    read_bandwidth: float
    write_bandwidth: float

    def __post_init__(self) -> None:
        require_positive(self.capacity_bytes, "capacity_bytes")
        require_positive(self.read_latency_s, "read_latency_s")
        require_positive(self.write_latency_s, "write_latency_s")
        require_positive(self.read_bandwidth, "read_bandwidth")
        require_positive(self.write_bandwidth, "write_bandwidth")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        name: str,
        kind: DeviceKind,
        capacity_bytes: int,
        read_latency_ns: float,
        write_latency_ns: float,
        read_bw_gbps: float,
        write_bw_gbps: float,
    ) -> "MemoryDevice":
        """Build a device from datasheet units (ns, GB/s)."""
        return cls(
            name=name,
            kind=kind,
            capacity_bytes=int(capacity_bytes),
            read_latency_s=read_latency_ns * NS,
            write_latency_s=write_latency_ns * NS,
            read_bandwidth=bytes_per_second(read_bw_gbps),
            write_bandwidth=bytes_per_second(write_bw_gbps),
        )

    def scaled(
        self,
        name: str | None = None,
        kind: DeviceKind | None = None,
        capacity_bytes: int | None = None,
        latency_scale: float = 1.0,
        bandwidth_scale: float = 1.0,
    ) -> "MemoryDevice":
        """Derive a device with latency multiplied / bandwidth divided.

        This mirrors the paper's emulation sweeps: ``1/2 DRAM BW`` is
        ``dram.scaled(bandwidth_scale=0.5, kind=NVM)`` and ``4x DRAM LAT``
        is ``dram.scaled(latency_scale=4.0, kind=NVM)``.
        """
        require_positive(latency_scale, "latency_scale")
        require_positive(bandwidth_scale, "bandwidth_scale")
        return replace(
            self,
            name=name if name is not None else self.name,
            kind=kind if kind is not None else self.kind,
            capacity_bytes=(
                int(capacity_bytes) if capacity_bytes is not None else self.capacity_bytes
            ),
            read_latency_s=self.read_latency_s * latency_scale,
            write_latency_s=self.write_latency_s * latency_scale,
            read_bandwidth=self.read_bandwidth * bandwidth_scale,
            write_bandwidth=self.write_bandwidth * bandwidth_scale,
        )
