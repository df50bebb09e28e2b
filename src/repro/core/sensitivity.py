"""Bandwidth-vs-latency sensitivity (Eq. 1 analogue).

An object's estimated main-memory bandwidth demand is::

    BW_obj = accesses x cacheline / (active_fraction x duration)

compared against the platform's achievable NVM peak (STREAM-measured, in
the same estimated-traffic units):

- ``BW_obj >= t1% of peak``  -> bandwidth-sensitive (it would saturate NVM);
- ``BW_obj <= t2% of peak``  -> latency-sensitive (accesses are dependent /
  sparse, so exposed latency, not throughput, is what hurts);
- in between -> mixed: take the larger of the two benefit estimates.

The thresholds are the paper's fixed t1=80 %, t2=10 % (:data:`T1`,
:data:`T2`); the placement weigher
(:func:`repro.core.placement._weights_for`) classifies against them.
"""

from __future__ import annotations

from repro.profiling.sampler import ObjectSample

__all__ = ["object_bandwidth"]

#: Bandwidth-sensitivity threshold: share of the NVM peak at or above
#: which an object is bandwidth-sensitive.
T1 = 0.80
#: Latency-sensitivity threshold: share of the NVM peak at or below which
#: an object is latency-sensitive.
T2 = 0.10


def object_bandwidth(sample: ObjectSample, duration: float) -> float:
    """Eq. 1: estimated bandwidth demand (bytes/s) of one object in one
    profiled task execution."""
    active_time = max(sample.active_fraction, 1e-9) * max(duration, 1e-12)
    return sample.accessed_bytes / active_time
