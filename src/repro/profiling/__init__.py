"""Profiling substrate: emulated hardware counters and offline calibration.

Real hardware exposes load/store events in sampling mode (Intel PEBS, AMD
IBS).  Two properties of that mechanism shape the paper's design and are
reproduced here:

1. Counts are *sampled*, hence noisy and systematically scaled — the
   models correct with the offline-calibrated constant factors CF_bw and
   CF_lat rather than trusting raw counts.
2. Load/store events do **not** filter cache hits (the LLC-miss event
   cannot distinguish reads from writes, so the paper rejects it); the
   models therefore overestimate main-memory traffic, which the constant
   factors also absorb.
"""

from repro.profiling.sampler import ObjectSample, TaskProfile, SamplingProfiler
from repro.profiling.calibration import CalibrationResult, calibrate

__all__ = [
    "ObjectSample",
    "TaskProfile",
    "SamplingProfiler",
    "CalibrationResult",
    "calibrate",
]
