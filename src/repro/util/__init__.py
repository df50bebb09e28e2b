"""Shared utilities: units, deterministic RNG plumbing, tables, validation."""

from repro.util.units import (
    CACHELINE_BYTES,
    KIB,
    MIB,
    GIB,
    NS,
    US,
    MS,
    GBPS,
    bytes_per_second,
)
from repro.util.rng import spawn_rng
from repro.util.validation import require, require_positive, require_nonnegative
from repro.util.tables import Table
from repro.util.log import get_logger

__all__ = [
    "CACHELINE_BYTES",
    "KIB",
    "MIB",
    "GIB",
    "NS",
    "US",
    "MS",
    "GBPS",
    "bytes_per_second",
    "spawn_rng",
    "require",
    "require_positive",
    "require_nonnegative",
    "Table",
    "get_logger",
]
