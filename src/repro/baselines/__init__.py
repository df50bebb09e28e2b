"""Baseline placement policies the paper line compares against.

- :class:`NVMOnlyPolicy` / :class:`DRAMOnlyPolicy` — the two bounding
  systems every figure normalizes to.
- :class:`StaticPlacementPolicy` — a fixed set of objects pinned in
  DRAM (per-object studies and external static plans).
- :class:`OracleStaticPolicy` — the unrealizable static upper bound.
- :class:`XMemPolicy` — the X-Mem-class software baseline: offline exact
  profiling, static hotness-density knapsack, no migration-cost model.
- :class:`HWCacheMode` — hardware Memory Mode (DRAM as a direct-mapped
  cache in front of NVM), configured on the executor rather than via
  placement.
"""

from repro.baselines.policies import (
    BasePolicy,
    NVMOnlyPolicy,
    DRAMOnlyPolicy,
    StaticPlacementPolicy,
)
from repro.baselines.xmem import XMemPolicy
from repro.baselines.hwcache import HWCacheMode
from repro.baselines.oracle import OracleStaticPolicy

__all__ = [
    "BasePolicy",
    "NVMOnlyPolicy",
    "DRAMOnlyPolicy",
    "StaticPlacementPolicy",
    "XMemPolicy",
    "HWCacheMode",
    "OracleStaticPolicy",
]
