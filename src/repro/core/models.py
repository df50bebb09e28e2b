"""Task-type behaviour models built from sampled profiles.

A task-parallel run has thousands of task instances but few task *types*
(static code sites: ``gemm``, ``spmv``, ``jacobi``...).  Instances of a
type touch different objects but with near-identical per-argument-slot
behaviour, so the manager profiles ``profile_instances`` instances per
type and generalizes: slot ``i`` of any future instance of the type is
predicted to behave like the mean of slot ``i`` across the profiled
instances.  This is the scalability move that distinguishes the
task-parallel system from per-phase profiling — profiling cost is
O(types), prediction covers O(instances).

Per-object demand over a planning horizon is not kept here: the data
manager folds these slot means straight into
:class:`~repro.core.demand.DemandBatch` columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sensitivity import object_bandwidth
from repro.profiling.sampler import TaskProfile

__all__ = ["SlotStats", "TypeModel"]


@dataclass
class SlotStats:
    """Mean sampled behaviour of one argument slot of a task type."""

    loads: float = 0.0
    stores: float = 0.0
    misses: float = 0.0
    active_fraction: float = 0.0
    bw_demand: float = 0.0  #: mean Eq.-1 bandwidth estimate (bytes/s)
    #: mean seconds per instance with an outstanding miss to this slot's
    #: object — the time-based benefit estimator's magnitude.
    mem_seconds: float = 0.0
    #: fraction of the profiled instances that saw the object DRAM-resident.
    dram_frac: float = 0.0
    n: int = 0
    _m2_misses: float = 0.0  #: Welford accumulator for miss variance

    def update(
        self,
        loads: float,
        stores: float,
        misses: float,
        active: float,
        bw: float,
        mem_seconds: float = 0.0,
        on_dram: bool = False,
    ) -> None:
        """Fold one observation into the running means."""
        self.n += 1
        k = 1.0 / self.n
        self.loads += (loads - self.loads) * k
        self.stores += (stores - self.stores) * k
        old_mean = self.misses
        self.misses += (misses - self.misses) * k
        self._m2_misses += (misses - old_mean) * (misses - self.misses)
        self.active_fraction += (active - self.active_fraction) * k
        self.bw_demand += (bw - self.bw_demand) * k
        self.mem_seconds += (mem_seconds - self.mem_seconds) * k
        self.dram_frac += ((1.0 if on_dram else 0.0) - self.dram_frac) * k

    @property
    def confidence(self) -> float:
        """How trustworthy the slot's mean is across instances, in (0, 1].

        Instances of a well-behaved type have near-identical footprints
        (confidence ~ 1); a type whose instances vary wildly (irregular
        codes) gets its predicted benefits damped so the manager does not
        churn on guesses.
        """
        if self.n < 2 or self.misses <= 0:
            return 1.0
        var = self._m2_misses / (self.n - 1)
        cv2 = var / (self.misses * self.misses)
        return 1.0 / (1.0 + cv2)


@dataclass
class TypeModel:
    """Aggregated model of one task type."""

    type_name: str
    slots: list[SlotStats] = field(default_factory=list)
    mean_duration: float = 0.0
    n_profiles: int = 0
    #: Fast EWMA of recent instance durations (placement-feedback signal),
    #: folded in by ``DataManagerPolicy.after_task`` once profiling is done.
    recent_duration: float = 0.0
    n_instances: int = 0

    def observe(self, profile: TaskProfile) -> None:
        """Fold one profiled instance in (slot order = access-dict order)."""
        self.n_profiles += 1
        k = 1.0 / self.n_profiles
        self.mean_duration += (profile.duration - self.mean_duration) * k
        for i, (uid, sample) in enumerate(profile.objects.items()):
            while len(self.slots) <= i:
                self.slots.append(SlotStats())
            bw = object_bandwidth(sample, profile.duration)
            self.slots[i].update(
                sample.loads,
                sample.stores,
                sample.misses,
                sample.active_fraction,
                bw,
                mem_seconds=sample.mem_active_fraction * profile.duration,
                on_dram=sample.on_dram,
            )

    @property
    def ready(self) -> bool:
        return self.n_profiles > 0

    def slot_rows(self) -> tuple[tuple[float, float, float, float, float, float, float], ...]:
        """Per-slot ``(loads, stores, misses, bw_demand, confidence,
        mem_seconds, dram_frac)`` tuples — the demand-projection loop's
        read set, flattened once per model version.

        Slots only mutate through :meth:`observe`, which bumps
        ``n_profiles``, so the memo is keyed by it; the ``confidence``
        property (a divide + variance read per evaluation) is thereby
        computed once per slot per model version instead of once per
        projected task access.
        """
        cached = self.__dict__.get("_slot_rows")
        if cached is not None and cached[0] == self.n_profiles:
            return cached[1]
        rows = tuple(
            (
                s.loads,
                s.stores,
                s.misses,
                s.bw_demand,
                s.confidence,
                s.mem_seconds,
                s.dram_frac,
            )
            for s in self.slots
        )
        self.__dict__["_slot_rows"] = (self.n_profiles, rows)
        return rows
