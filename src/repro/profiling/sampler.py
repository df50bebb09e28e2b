"""Sampling-mode hardware-counter emulation.

``SamplingProfiler.sample_task`` is the only path by which a placement
policy learns about a task's memory behaviour.  It emulates precise
event-based sampling at ``interval_cycles``:

- each of the task's load/store instructions is captured independently
  with probability ``1/interval``; the profiler reports the unbiased
  scale-back ``captured * interval`` (binomial noise included);
- the *active fraction* of each object (the share of samples whose
  sampled address falls in the object — the denominator of the paper's
  Eq. 1) is estimated from a binomial draw over the task's samples;
- counts are **pre-cache** (load/store events see cache hits too), so the
  profile systematically overstates main-memory traffic — exactly the
  inaccuracy the CF constant factors are calibrated to absorb.

Everything is deterministic given the seed; the noise stream is keyed by
(task name, type name) so profiles are stable across reruns, processes,
and workload build order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.tasking.task import Task
from repro.util.rng import spawn_rng
from repro.util.units import CACHELINE_BYTES

__all__ = ["ObjectSample", "TaskProfile", "SamplingProfiler"]

#: Clock of the emulated CPU whose cycles the sampling interval counts.
CPU_GHZ: float = 2.4
_CPU_HZ: float = CPU_GHZ * 1e9


@dataclass(frozen=True)
class ObjectSample:
    """What the counters report about one object in one task execution.

    Two counter families are emulated:

    - load/store events (``loads``/``stores``): direction-aware but
      pre-cache — they see cache hits too;
    - LLC-miss events (``misses``): post-cache magnitude, but
      direction-blind (the hardware limitation the paper discusses).

    The models combine them: magnitude from misses, read/write split from
    the load/store ratio.
    """

    loads: float  #: estimated load count (scale-corrected, noisy, pre-cache)
    stores: float  #: estimated store count (scale-corrected, noisy, pre-cache)
    misses: float  #: estimated LLC-miss count (scale-corrected, direction-blind)
    active_fraction: float  #: est. fraction of task time accessing the object
    #: est. fraction of task time with an outstanding main-memory miss to
    #: the object (memory-event sampling with the latency facility) — the
    #: magnitude the time-based benefit estimator prices.
    mem_active_fraction: float = 0.0
    #: device the object resided on while profiled.
    device: str = ""

    @property
    def accessed_bytes(self) -> float:
        """Main-memory traffic estimate Eq. 1 uses: misses x line size."""
        return self.misses * CACHELINE_BYTES

    @property
    def load_fraction(self) -> float:
        """Read share of the traffic, from the direction-aware counters."""
        total = self.loads + self.stores
        return self.loads / total if total > 0 else 1.0

    @property
    def miss_loads(self) -> float:
        """Miss magnitude attributed to reads (counter combination)."""
        return self.misses * self.load_fraction

    @property
    def miss_stores(self) -> float:
        return self.misses * (1.0 - self.load_fraction)


@dataclass(frozen=True)
class TaskProfile:
    """One profiled execution of one task."""

    type_name: str
    duration: float
    objects: dict[int, ObjectSample]  #: keyed by DataObject uid


class SamplingProfiler:
    """Emulated PEBS/IBS sampling of a task's loads and stores."""

    #: CPU cycles consumed per captured sample (interrupt + buffer drain).
    PER_SAMPLE_CYCLES: float = 8.0

    def __init__(self, interval_cycles: int = 1000, *, seed: int):
        if interval_cycles < 1:
            raise ValueError("interval_cycles must be >= 1")
        self.interval_cycles = int(interval_cycles)
        self._seed = seed

    # ------------------------------------------------------------------
    def n_samples(self, duration: float) -> int:
        """Samples collected over a task of the given duration."""
        return int(duration * _CPU_HZ / self.interval_cycles)

    def overhead_time(self, duration: float) -> float:
        """Software cost of sampling a task of the given duration."""
        return self.n_samples(duration) * self.PER_SAMPLE_CYCLES / _CPU_HZ

    def sample_task(
        self,
        task: Task,
        duration: float,
        mem_times: Sequence[float],
        devices: Sequence[str],
    ) -> TaskProfile:
        """Profile one execution of ``task`` that took ``duration`` seconds.

        ``mem_times`` and ``devices`` hold, per access of ``task`` in
        declaration order, its uncontended memory time on the device its
        object lived on during the profiled run and that device's name
        (what :func:`repro.tasking.executor.placed_memory_times` gives):
        the ground truth of the active fractions.
        """
        rng = spawn_rng(self._seed, "sampler", task.name, task.type_name)
        p = 1.0 / self.interval_cycles
        n_samp = self.n_samples(duration)

        total_accesses = max(1, task.total_accesses)
        sum_mem = sum(mem_times)

        objects: dict[int, ObjectSample] = {}
        for (obj, acc), mem_time, device in zip(
            task.accesses.items(), mem_times, devices
        ):
            cap_loads = int(rng.binomial(acc.loads, p)) if acc.loads else 0
            cap_stores = int(rng.binomial(acc.stores, p)) if acc.stores else 0
            est_loads = cap_loads * self.interval_cycles
            est_stores = cap_stores * self.interval_cycles
            true_misses = int(acc.miss_loads + acc.miss_stores)
            cap_misses = int(rng.binomial(true_misses, p)) if true_misses else 0
            est_misses = cap_misses * self.interval_cycles

            share = acc.accesses / total_accesses
            if sum_mem > 0 and duration > 0:
                active_true = (mem_time + task.compute_time * share) / max(
                    duration, 1e-12
                )
            else:
                active_true = share
            active_true = min(1.0, max(0.0, active_true))
            if n_samp >= 1 and 0.0 < active_true < 1.0:
                hits = int(rng.binomial(n_samp, active_true))
                active_est = hits / n_samp
            else:
                active_est = active_true

            mem_true = min(1.0, mem_time / max(duration, 1e-12))
            if n_samp >= 1 and 0.0 < mem_true < 1.0:
                mem_hits = int(rng.binomial(n_samp, mem_true))
                mem_est = mem_hits / n_samp
            else:
                mem_est = mem_true

            # Direct __dict__ fill: a frozen dataclass routes every field
            # through object.__setattr__, which more than doubles the cost
            # of the most-constructed object in the profiler.  The field
            # set matches the dataclass exactly and instances stay frozen
            # to callers.
            sample = object.__new__(ObjectSample)
            sample.__dict__.update(
                loads=float(est_loads),
                stores=float(est_stores),
                misses=float(est_misses),
                active_fraction=active_est,
                mem_active_fraction=mem_est,
                device=device,
            )
            objects[obj.uid] = sample
        profile = object.__new__(TaskProfile)
        profile.__dict__.update(
            type_name=task.type_name,
            duration=duration,
            objects=objects,
        )
        return profile
