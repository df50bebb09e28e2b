"""Bandwidth-vs-latency sensitivity classification (Eq. 1 analogue).

An object's estimated main-memory bandwidth demand is::

    BW_obj = accesses x cacheline / (active_fraction x duration)

compared against the platform's achievable NVM peak (STREAM-measured, in
the same estimated-traffic units):

- ``BW_obj >= t1% of peak``  -> bandwidth-sensitive (it would saturate NVM);
- ``BW_obj <= t2% of peak``  -> latency-sensitive (accesses are dependent /
  sparse, so exposed latency, not throughput, is what hurts);
- in between -> mixed: take the larger of the two benefit estimates.

The thresholds are the paper's fixed t1=80 %, t2=10 % (:data:`T1`,
:data:`T2`); the placement weigher reads the same constants.
"""

from __future__ import annotations

import enum

from repro.profiling.sampler import ObjectSample
from repro.util.validation import require

__all__ = ["Sensitivity", "object_bandwidth", "classify_bandwidth"]

#: Bandwidth-sensitivity threshold: share of the NVM peak at or above
#: which an object is bandwidth-sensitive.
T1 = 0.80
#: Latency-sensitivity threshold: share of the NVM peak at or below which
#: an object is latency-sensitive.
T2 = 0.10


class Sensitivity(enum.Enum):
    BANDWIDTH = "bandwidth"
    LATENCY = "latency"
    MIXED = "mixed"


def object_bandwidth(sample: ObjectSample, duration: float) -> float:
    """Eq. 1: estimated bandwidth demand (bytes/s) of one object in one
    profiled task execution."""
    active_time = max(sample.active_fraction, 1e-9) * max(duration, 1e-12)
    return sample.accessed_bytes / active_time


def classify_bandwidth(
    bw_obj: float,
    peak_nvm_bandwidth: float,
    t1: float = T1,
    t2: float = T2,
) -> Sensitivity:
    """Classify an object's demand against the NVM achievable peak."""
    require(0.0 < t2 < t1 <= 1.5, f"need 0 < t2 < t1, got t1={t1}, t2={t2}")
    if bw_obj >= t1 * peak_nvm_bandwidth:
        return Sensitivity.BANDWIDTH
    if bw_obj <= t2 * peak_nvm_bandwidth:
        return Sensitivity.LATENCY
    return Sensitivity.MIXED
