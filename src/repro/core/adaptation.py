"""Workload-variation detection (the >10 % rule, per iteration).

The paper monitors the performance of each *phase* across outer-loop
iterations and re-activates profiling when it deviates by more than 10 %.
The task-granularity translation: accumulate each task type's durations
per iteration (``Task.iteration``), close an iteration's mean when the
type moves to the next iteration, and compare it against the means of
earlier iterations.

Why per-iteration means and not a sliding window of instances: placement
itself makes instance durations bimodal (a type's DRAM-resident-data
instances run faster than its NVM ones), and instance windows land
mode-pure and false-trigger.  Every object is touched once per iteration,
so iteration means average over residency modes; only genuine workload
variation moves them.

Guards:

- a baseline of :data:`MIN_ITERATIONS` closed iterations before any
  trigger;
- the deviation must exceed :data:`THRESHOLD` *and* :data:`SIGMAS`
  standard deviations of the baseline iteration means;
- a trigger clears the baseline, so the new regime measures itself
  afresh: :data:`MIN_ITERATIONS` closed iterations must refill it before
  the next trigger can fire.

Tasks with ``iteration < 0`` (no iterative structure) never trigger.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import sqrt

from repro.util.numeric import running_total

__all__ = ["DeviationDetector"]

#: Relative deviation of an iteration mean that re-activates profiling.
THRESHOLD: float = 0.10
#: ... and the deviation must also exceed this many baseline std devs.
SIGMAS: float = 3.0
#: Closed iterations of baseline before any trigger.
MIN_ITERATIONS: int = 3


@dataclass(slots=True)
class _TypeState:
    # slots: one state is touched per completed task (the policy's
    # steady-state hot path), and slot loads/stores beat __dict__ there.
    cur_iter: int | None = None
    cur_sum: float = 0.0
    cur_n: int = 0
    closed: deque = field(default_factory=lambda: deque(maxlen=32))


@dataclass
class DeviationDetector:
    _types: dict[str, _TypeState] = field(default_factory=dict)

    def observe(self, type_name: str, duration: float, iteration: int = -1) -> bool:
        """Record one instance; returns True when re-profiling should fire
        (evaluated at iteration boundaries)."""
        if iteration < 0:
            return False
        st = self._types.get(type_name)
        if st is None:  # setdefault would build the deque-backed state
            st = self._types[type_name] = _TypeState()  # on every call

        fire = False
        if st.cur_iter is not None and iteration != st.cur_iter and st.cur_n > 0:
            mean = st.cur_sum / st.cur_n
            fire = self._test(st, mean)
            if fire:
                st.closed.clear()
            else:
                st.closed.append(mean)
            st.cur_sum = 0.0
            st.cur_n = 0
        st.cur_iter = iteration
        st.cur_sum += duration
        st.cur_n += 1
        return fire

    def _test(self, st: _TypeState, mean: float) -> bool:
        if len(st.closed) < MIN_ITERATIONS:
            return False
        ref = list(st.closed)
        ref_mean = running_total(ref) / len(ref)
        if ref_mean <= 0:
            return False
        var = running_total((x - ref_mean) ** 2 for x in ref) / max(1, len(ref) - 1)
        ref_std = sqrt(var)
        dev = abs(mean - ref_mean)
        return dev > THRESHOLD * ref_mean and dev > SIGMAS * ref_std
