"""Virtual-time time-series samplers.

The simulator is event-driven: machine state (device occupancy, lane
backlog, running tasks) is a step function of virtual time, constant
between events.  A :class:`TimeSeriesSampler` therefore does not need a
clock — the executor calls :meth:`SamplerSet.tick` at the top of every
scheduling step, and each sampler records one point per elapsed cadence
boundary, reading its bound value callable (state has not changed since
the previous event, so the value is exact for every boundary crossed).

Series are bounded by ``max_samples``; when the cap is hit the sampler
decimates itself (drops every other point and doubles its cadence), so
long runs degrade resolution instead of memory.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["TimeSeriesSampler", "SamplerSet"]


class TimeSeriesSampler:
    """One named time series sampled at a fixed virtual-time cadence."""

    __slots__ = ("name", "labels", "cadence_s", "max_samples", "times", "values", "_next_t", "_value_fn")

    def __init__(
        self,
        name: str,
        value_fn: Callable[[float], float],
        cadence_s: float,
        *,
        max_samples: int,
        labels: dict[str, str] | None = None,
    ):
        if cadence_s <= 0:
            raise ValueError("cadence_s must be positive")
        self.name = name
        self.labels = dict(labels or {})
        self.cadence_s = float(cadence_s)
        self.max_samples = int(max_samples)
        self.times: list[float] = []
        self.values: list[float] = []
        self._next_t = 0.0
        self._value_fn = value_fn

    def tick(self, now: float) -> None:
        """Record one point per cadence boundary in ``(last, now]``.

        The machine state is constant since the previous event, so the
        current value of ``value_fn`` is exact at every crossed boundary.
        """
        if now < self._next_t:
            return
        value = float(self._value_fn(now))
        while self._next_t <= now:
            self.times.append(self._next_t)
            self.values.append(value)
            self._next_t += self.cadence_s
            if len(self.times) >= self.max_samples:
                self._decimate()

    def finish(self, makespan: float) -> None:
        """Record the final state at the end of the run."""
        value = float(self._value_fn(makespan))
        if not self.times or self.times[-1] < makespan:
            self.times.append(makespan)
            self.values.append(value)

    def _decimate(self) -> None:
        self.times = self.times[::2]
        self.values = self.values[::2]
        self.cadence_s *= 2.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(sorted(self.labels.items())),
            "cadence_s": self.cadence_s,
            "t": list(self.times),
            "v": list(self.values),
        }


class SamplerSet:
    """The samplers of one instrumented run, ticked together."""

    def __init__(self) -> None:
        self._samplers: list[TimeSeriesSampler] = []

    def add(self, sampler: TimeSeriesSampler) -> TimeSeriesSampler:
        self._samplers.append(sampler)
        return sampler

    def __len__(self) -> int:
        return len(self._samplers)

    def __iter__(self):
        return iter(self._samplers)

    def tick(self, now: float) -> None:
        for s in self._samplers:
            s.tick(now)

    def finish(self, makespan: float) -> None:
        for s in self._samplers:
            s.finish(makespan)

    def to_list(self) -> list[dict[str, Any]]:
        return [
            s.to_dict()
            for s in sorted(self._samplers, key=lambda s: (s.name, sorted(s.labels.items())))
        ]
