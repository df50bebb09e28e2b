"""Bandwidth contention between concurrent tasks.

When several workers stream from the same device at once they share its
bandwidth.  We model processor sharing with a small concurrency *bonus*:
real memory controllers extract more aggregate bandwidth from multiple
request streams (bank/channel parallelism) up to saturation.  The
per-stream bandwidth multiplier for ``n`` concurrent streams is::

    share(n) = min(1, SATURATION_STREAMS / n)   (n >= 1)

``SATURATION_STREAMS`` is how many streams the device sustains at full
per-stream bandwidth; beyond it, per-stream bandwidth decays like ``1/n``.
Latency-bound traffic is unaffected — contention applies only to the
bandwidth term of the timing model, which is exactly why
bandwidth-sensitive objects hurt more on NVM under high task parallelism
(a first-order effect the task-parallel paper targets).
"""

from __future__ import annotations

__all__ = ["SATURATION_STREAMS", "share", "slowdown"]

#: The device bandwidth figures are per-stream capabilities; a modern
#: controller sustains several such streams at full rate (channel/bank
#: parallelism) before per-stream sharing kicks in.
SATURATION_STREAMS: float = 6.0


def share(n_streams: int) -> float:
    """Fraction of full device bandwidth each of ``n_streams`` gets."""
    return min(1.0, SATURATION_STREAMS / max(1, int(n_streams)))


def slowdown(n_streams: int) -> float:
    """Multiplier on the bandwidth *time* term (>= 1): ``1 / share(n)``,
    written out so the executor's per-access call skips ``share``'s
    clamps (bitwise the same for every stream count ``n >= 1``)."""
    return 1.0 / (SATURATION_STREAMS / n_streams) if n_streams > SATURATION_STREAMS else 1.0
