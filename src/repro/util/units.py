"""Unit conventions used across the simulator.

All times are in seconds (float), all sizes in bytes (int), all bandwidths
in bytes/second (float).  The constants below convert the conventional units
that memory specs are quoted in (nanoseconds, GB/s, MiB) into those base
units, so the rest of the code never multiplies by a magic 1e-9.
"""

from __future__ import annotations

#: Size of one cache line; all main-memory traffic is counted in cache lines.
CACHELINE_BYTES: int = 64

KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: One nanosecond/microsecond/millisecond in seconds.
NS: float = 1e-9
US: float = 1e-6
MS: float = 1e-3

#: One GB/s (decimal, as memory specs quote it) in bytes/second.
GBPS: float = 1e9


def bytes_per_second(gb_per_s: float) -> float:
    """Convert a bandwidth quoted in GB/s into bytes/second."""
    return gb_per_s * GBPS

