"""Hardware DRAM-cache ("Memory Mode") model.

Optane PMM's Memory Mode makes DRAM a direct-mapped, write-back cache in
front of NVM, with no software control over placement.  We model its
effect at footprint granularity: a task's memory time becomes a blend of
the DRAM-resident and NVM-resident times, weighted by the estimated
DRAM-cache hit rate.

Hit-rate model: with DRAM capacity ``C`` and application working set ``W``
(bytes of distinct data with reuse), capacity hits are ``min(1, C/W)``;
a direct-mapped conflict factor (:data:`CONFLICT_FACTOR`) shaves a
constant fraction off that, and misses additionally pay a cache-fill
(DRAM write) per line (:data:`FILL_PENALTY`).  This is
deliberately coarse — the baseline's defining property is that hot *and*
cold data share the cache indiscriminately, which the blend captures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require_positive

__all__ = ["DRAMCacheModel"]

#: Fraction of would-be capacity hits lost to direct-mapped conflicts.
CONFLICT_FACTOR: float = 0.15
#: Extra time per miss, as a fraction of the DRAM-resident time, for the
#: line fill into DRAM on the miss path.
FILL_PENALTY: float = 0.10


@dataclass(frozen=True)
class DRAMCacheModel:
    """Direct-mapped DRAM cache in front of NVM."""

    dram_capacity_bytes: int

    def __post_init__(self) -> None:
        require_positive(self.dram_capacity_bytes, "dram_capacity_bytes")

    def hit_rate(self, working_set_bytes: int) -> float:
        """Estimated DRAM-cache hit rate for a given working set."""
        if working_set_bytes <= 0:
            return 1.0
        capacity_hits = min(1.0, self.dram_capacity_bytes / working_set_bytes)
        return capacity_hits * (1.0 - CONFLICT_FACTOR)

    def blend(self, time_dram: float, time_nvm: float, working_set_bytes: int) -> float:
        """Effective memory time under Memory Mode.

        ``time_dram``/``time_nvm`` are the task's memory times were its data
        purely DRAM- or NVM-resident.
        """
        h = self.hit_rate(working_set_bytes)
        miss_time = time_nvm + FILL_PENALTY * time_dram
        return h * time_dram + (1.0 - h) * miss_time
