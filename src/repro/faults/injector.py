"""The fault injector: turns a :class:`FaultPlan` into runtime events.

The injector is the *mechanism* half of the subsystem.  It interposes on
the simulated machine through three explicit hook points, all consulted
by existing components rather than monkey-patching them:

- :meth:`copy_attempt_fails` — asked by the
  :class:`~repro.memory.migration.MigrationEngine` before each copy
  attempt; drives both the probabilistic and the every-nth failure modes.
- :meth:`bw_penalty` / :meth:`lat_penalty` / :meth:`copy_penalty` —
  asked by the executor's timing queries and the migration lane; return
  the degradation multipliers active on a device at a virtual time.
- :meth:`pop_capacity_losses` — polled by the executor as virtual time
  advances; returns the capacity-loss events that have come due, exactly
  once each.

Every injection is recorded (:class:`InjectionEvent`) so traces can show
what was injected and the run summary can report it.  All randomness
derives from the plan's seed: the same plan against the same run yields
the same injections, which is what makes fault runs cacheable and
property-testable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.plan import CapacityLoss, FaultPlan
from repro.util.numeric import running_total

__all__ = ["InjectionEvent", "FaultInjector"]

#: Role names a plan may use instead of literal device names.
_ROLES = ("dram", "nvm")


@dataclass(frozen=True)
class InjectionEvent:
    """One realized injection, for traces and summaries."""

    kind: str  #: "copy-fail" | "capacity-loss"
    time: float  #: virtual time the injection took effect
    device: str = ""
    detail: str = ""
    nbytes: int = 0


class FaultInjector:
    """Deterministic realization of one :class:`FaultPlan` for one run."""

    def __init__(self, plan: FaultPlan, dram_name: str = "dram", nvm_name: str = "nvm"):
        self.plan = plan
        self._names = {"dram": dram_name, "nvm": nvm_name}
        self._rng = random.Random(plan.seed ^ 0x5EEDFA17)
        self._copies_seen = 0
        self._pending_losses: list[CapacityLoss] = sorted(
            (c for c in plan.capacity_losses if c.lose_bytes > 0),
            key=lambda c: c.at_s,
        )
        self.events: list[InjectionEvent] = []
        self.injected_copy_failures = 0

    @classmethod
    def for_hms(cls, plan: FaultPlan, hms) -> "FaultInjector":
        """Build an injector bound to an actual machine's device names."""
        return cls(plan, dram_name=hms.dram.name, nvm_name=hms.nvm.name)

    def device_name(self, role_or_name: str) -> str:
        """Resolve a plan's ``"dram"``/``"nvm"`` role to the machine's
        actual device name (literal names pass through)."""
        return self._names.get(role_or_name, role_or_name)

    # ------------------------------------------------------------------
    # Hook: migration copy failures
    # ------------------------------------------------------------------
    def begin_copy(self) -> int:
        """Called once per scheduled copy; returns its 1-based ordinal."""
        self._copies_seen += 1
        return self._copies_seen

    def copy_attempt_fails(self, copy_ordinal: int, attempt: int, time: float,
                           obj_uid: int, nbytes: int) -> bool:
        """Whether this copy attempt fails (``attempt`` is 0-based).

        The every-nth mode fails only the first attempt of the nth copy
        (the retry then succeeds unless the probabilistic mode also
        fires); the probabilistic mode applies to every attempt.
        """
        plan = self.plan
        fail = False
        if plan.copy_fail_every is not None and attempt == 0:
            fail = copy_ordinal % plan.copy_fail_every == 0
        if not fail and plan.copy_fail_prob > 0.0:
            fail = self._rng.random() < plan.copy_fail_prob
        if fail:
            self.injected_copy_failures += 1
            # The event identifies the copy by its deterministic ordinal,
            # not the process-global object uid: digests of identical runs
            # must match across processes (serial vs run_many vs cache).
            self.events.append(
                InjectionEvent(
                    kind="copy-fail",
                    time=time,
                    detail=f"copy={copy_ordinal} attempt={attempt}",
                    nbytes=nbytes,
                )
            )
        return fail

    # ------------------------------------------------------------------
    # Hook: time-windowed degradation
    # ------------------------------------------------------------------
    def _matches(self, window_device: str, device_name: str) -> bool:
        if window_device in _ROLES:
            return self._names[window_device] == device_name
        return window_device == device_name

    def bw_penalty(self, device_name: str, t: float) -> float:
        """Multiplier (>= 1) on the bandwidth *time* term at ``t``."""
        penalty = 1.0
        for w in self.plan.windows:
            if w.bandwidth_scale < 1.0 and w.active_at(t) and self._matches(w.device, device_name):
                penalty /= w.bandwidth_scale
        return penalty

    def lat_penalty(self, device_name: str, t: float) -> float:
        """Multiplier (>= 1) on the latency time term at ``t``."""
        penalty = 1.0
        for w in self.plan.windows:
            if w.latency_scale > 1.0 and w.active_at(t) and self._matches(w.device, device_name):
                penalty *= w.latency_scale
        return penalty

    def copy_penalty(self, src_name: str, dst_name: str, t: float) -> float:
        """Multiplier on a migration copy spanning ``src`` -> ``dst`` at ``t``.

        The copy streams at the min of source read and destination write
        bandwidth, so the worse of the two devices' penalties governs.
        """
        return max(self.bw_penalty(src_name, t), self.bw_penalty(dst_name, t))

    # ------------------------------------------------------------------
    # Hook: capacity loss
    # ------------------------------------------------------------------
    def pop_capacity_losses(self, now: float) -> list[CapacityLoss]:
        """Capacity-loss events due at or before ``now``, delivered once."""
        due: list[CapacityLoss] = []
        while self._pending_losses and self._pending_losses[0].at_s <= now:
            due.append(self._pending_losses.pop(0))
        return due

    def note_capacity_loss(self, loss: CapacityLoss, time: float,
                           applied_bytes: int, evicted: int) -> None:
        """Record an applied capacity loss (called by the executor)."""
        self.events.append(
            InjectionEvent(
                kind="capacity-loss",
                time=time,
                device=loss.device,
                detail=f"evicted={evicted}",
                nbytes=applied_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def degraded_slices(self, makespan: float) -> list[dict[str, float | str]]:
        """The plan's degradation windows clipped to the run, with the
        realized penalty factors — the trace's degraded-time slices."""
        out: list[dict[str, float | str]] = []
        for w in self.plan.windows:
            if w.is_noop:
                continue
            start = min(w.start_s, makespan)
            end = min(w.end_s, makespan)
            if end <= start:
                continue
            out.append(
                {
                    "device": self._names.get(w.device, w.device),
                    "start_s": start,
                    "end_s": end,
                    "bandwidth_scale": w.bandwidth_scale,
                    "latency_scale": w.latency_scale,
                }
            )
        return out

    def degraded_time(self, makespan: float) -> float:
        """Total degraded device-time within the run (sum over slices)."""
        return running_total(
            s["end_s"] - s["start_s"] for s in self.degraded_slices(makespan)
        )
