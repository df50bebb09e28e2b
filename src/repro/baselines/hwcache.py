"""Hardware Memory-Mode baseline (DRAM as a cache in front of NVM).

Unlike every other baseline this is not a placement policy — the hardware
decides, so software placement is moot.  :func:`HWCacheMode.configure`
returns an :class:`ExecutorConfig` with the DRAM-cache model enabled; the
accompanying :class:`_NoopPolicy` satisfies the executor's policy slot.

Its characteristic failure mode, which E3/E8 show: hot and cold objects
contend for the same direct-mapped cache, so workloads whose working set
exceeds DRAM see NVM-class performance on *every* object, while the
software runtime keeps precisely the profitable ones resident.
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.policies import BasePolicy
from repro.memory.cache import DRAMCacheModel
from repro.tasking.executor import ExecutorConfig

__all__ = ["HWCacheMode"]


class HWCacheMode(BasePolicy):
    """Marker policy for Memory-Mode runs."""

    name = "hw-cache"

    @staticmethod
    def configure(base: ExecutorConfig, dram_capacity_bytes: int) -> ExecutorConfig:
        """An executor config with the DRAM-cache timing model enabled."""
        return replace(base, dram_cache=DRAMCacheModel(dram_capacity_bytes))
