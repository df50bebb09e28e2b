"""Migration cost model and helper-thread timeline.

The paper hides migration behind a helper thread that runs concurrently
with the application; cost is ``data_size / mem_copy_bw`` minus whatever
overlaps with computation.  Here the :class:`MigrationEngine` is that
helper thread in virtual time: a single serial lane of copies.  The
executor asks it to schedule copies at their earliest dependency-safe
point, and later asks how much of each copy failed to overlap (i.e. landed
on the critical path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.memory.device import MemoryDevice
from repro.util.units import US
from repro.util.validation import require_nonnegative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.metrics.registry import MetricsRegistry

__all__ = ["copy_time", "MigrationRecord", "MigrationEngine"]

#: Fixed software overhead per migration (queueing, page remap, pointer
#: update).  Small but non-zero so migrating thousands of tiny chunks is
#: correctly penalized — this is what makes naive partitioning lose.
MIGRATION_OVERHEAD_S: float = 20.0 * US

#: Bounded retry-with-backoff for injected copy failures: up to this many
#: retries after the initial attempt, with exponentially growing virtual
#: backoff, before the migration is abandoned (graceful degradation).
MAX_COPY_RETRIES: int = 3
RETRY_BACKOFF_S: float = 50.0 * US
#: Fraction of the copy that runs before a failure is detected; the lane
#: is occupied for that long even though no data lands.
FAILURE_DETECT_FRACTION: float = 0.5


def copy_time(
    nbytes: int | np.ndarray,
    src: MemoryDevice,
    dst: MemoryDevice,
) -> float | np.ndarray:
    """Virtual time to copy ``nbytes`` from ``src`` to ``dst``.

    The copy streams at the minimum of the source read bandwidth and the
    destination write bandwidth (``mem_copy_bw`` in the paper's Eq. 6),
    plus the fixed :data:`MIGRATION_OVERHEAD_S`.
    ``nbytes`` may be a numpy column of sizes: the same operations then
    run elementwise, bitwise equal to one scalar call per size.
    """
    lowest = nbytes.min(initial=0) if isinstance(nbytes, np.ndarray) else nbytes
    require_nonnegative(lowest, "nbytes")
    bw = min(src.read_bandwidth, dst.write_bandwidth)
    return nbytes / bw + MIGRATION_OVERHEAD_S


@dataclass
class MigrationRecord:
    """One completed (or scheduled) migration, for traces and Table-5 stats."""

    obj_uid: int
    nbytes: int
    src: str
    dst: str
    start_time: float  #: when the helper thread began copying
    end_time: float  #: when the copy finished
    needed_by: float = float("inf")  #: when the application first needs the object
    attempts: int = 1  #: copy attempts made (1 = no injected failures)
    failed: bool = False  #: True when every retry failed and the move was abandoned

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def exposed(self) -> float:
        """Portion of the copy that delayed the application (not overlapped)."""
        if self.failed:
            return 0.0  # nothing landed, nobody waited on this copy
        return max(0.0, self.end_time - max(self.needed_by, self.start_time)) if (
            self.needed_by < self.end_time
        ) else 0.0


class MigrationEngine:
    """A single helper thread's copy lane in virtual time.

    Copies are serviced FIFO: each starts at
    ``max(requested_start, lane_free_time)`` and occupies the lane for its
    copy time.  The executor reads three per-object indices inline: when
    an object's most recent landed copy completes (``_available_at``) — a
    task that writes the object blocks until then, the
    queue-as-synchronization mechanism in the paper — that copy's record
    (``_last_record``, whose source still serves readers meanwhile), and
    the landed copies not yet first used (``_pending_first_use``).
    """

    def __init__(self, injector: "FaultInjector | None" = None):
        self.injector = injector
        self._lane_free_at: float = 0.0
        self._available_at: dict[int, float] = {}
        self._last_record: dict[int, MigrationRecord] = {}
        #: Per-object stack of completed-but-not-yet-first-used records:
        #: the executor stamps ``needed_by`` on the newest unstamped record,
        #: which is exactly the top of this stack (records are pushed in
        #: lane order and failed copies are never pushed).
        self._pending_first_use: dict[int, list[MigrationRecord]] = {}
        self.records: list[MigrationRecord] = []
        #: Optional telemetry registry (attached per run when enabled).
        self.metrics: "MetricsRegistry | None" = None

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Enable per-copy instrumentation (telemetry plane)."""
        self.metrics = registry

    def schedule(
        self,
        obj_uid: int,
        nbytes: int,
        src: MemoryDevice,
        dst: MemoryDevice,
        request_time: float,
        earliest_start: float | None = None,
        critical: bool = False,
    ) -> MigrationRecord:
        """Enqueue a copy; returns its record (end_time = completion).

        Under fault injection each copy may take several attempts: a
        failed attempt occupies the lane until the failure is detected,
        then backs off (exponentially, in virtual time) before retrying.
        After :data:`MAX_COPY_RETRIES` failed retries the migration is abandoned
        (``record.failed``) and the caller must leave the object where it
        was.  ``critical`` copies — emergency dirty write-backs whose data
        would otherwise be lost — are retried until they land and never
        come back failed.
        """
        start = max(
            self._lane_free_at,
            request_time if earliest_start is None else max(earliest_start, request_time),
        )
        base = copy_time(nbytes, src, dst)
        attempts = 1
        failed = False
        if self.injector is None:
            end = start + base
        else:
            inj = self.injector
            ordinal = inj.begin_copy()
            t = start
            attempts = 0
            while True:
                ct = base * inj.copy_penalty(src.name, dst.name, t)
                fails = inj.copy_attempt_fails(ordinal, attempts, t, obj_uid, nbytes)
                if fails and critical and attempts >= MAX_COPY_RETRIES:
                    fails = False  # a critical write-back must eventually land
                attempts += 1
                if not fails:
                    end = t + ct
                    break
                t += ct * FAILURE_DETECT_FRACTION
                if attempts > MAX_COPY_RETRIES:
                    failed = True
                    end = t  # lane time the failed attempts burned
                    break
                t += RETRY_BACKOFF_S * (2 ** (attempts - 1))
        self._lane_free_at = end
        rec = MigrationRecord(
            obj_uid=obj_uid,
            nbytes=nbytes,
            src=src.name,
            dst=dst.name,
            start_time=start,
            end_time=end,
            attempts=attempts,
            failed=failed,
        )
        self.records.append(rec)
        if not failed:
            self._available_at[obj_uid] = end
            self._last_record[obj_uid] = rec
            self._pending_first_use.setdefault(obj_uid, []).append(rec)
        if self.metrics is not None:
            lane = {"src": src.name, "dst": dst.name}
            self.metrics.counter(
                "migrations_total", lane, help="Copies scheduled on the helper lane"
            ).inc()
            if failed:
                self.metrics.counter(
                    "migration_failures_total", lane,
                    help="Copies abandoned after exhausting retries",
                ).inc()
            else:
                self.metrics.counter(
                    "migrated_bytes_total", lane, help="Bytes landed by completed copies"
                ).inc(nbytes)
            if attempts > 1:
                self.metrics.counter(
                    "migration_retries_total", lane,
                    help="Copy attempts beyond the first",
                ).inc(attempts - 1)
            self.metrics.histogram(
                "migration_copy_seconds", lane,
                help="Lane occupancy per scheduled copy (virtual seconds)",
            ).observe(end - start)
        return rec

    @property
    def lane_free_at(self) -> float:
        """Virtual time at which the helper thread's copy lane drains."""
        return self._lane_free_at

    def queue_depth(self, now: float) -> int:
        """Copies scheduled but not yet landed at ``now`` (the telemetry
        plane's migration-queue-depth series).  The lane is serial and
        records are appended in lane order, so scanning back from the
        tail stops at the first drained copy."""
        depth = 0
        for rec in reversed(self.records):
            if rec.end_time <= now:
                break
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # Statistics (Table-5 analogues)
    # ------------------------------------------------------------------
    @property
    def migration_count(self) -> int:
        return len(self.records)

    @property
    def migrated_bytes(self) -> int:
        return sum(r.nbytes for r in self.records if not r.failed)

    # Resilience statistics (all zero without fault injection) ----------
    @property
    def retry_count(self) -> int:
        """Copy attempts beyond the first, across all migrations."""
        return sum(r.attempts - 1 for r in self.records)

    @property
    def recovered_count(self) -> int:
        """Migrations that landed only after at least one retry."""
        return sum(1 for r in self.records if r.attempts > 1 and not r.failed)

    @property
    def failed_count(self) -> int:
        """Migrations abandoned after exhausting their retries."""
        return sum(1 for r in self.records if r.failed)

    def total_copy_time(self) -> float:
        return sum(r.duration for r in self.records)

    def exposed_time(self) -> float:
        """Copy time that was *not* hidden behind computation."""
        return sum(min(r.duration, r.exposed) for r in self.records)

    def overlap_fraction(self) -> float:
        """Fraction of total copy time overlapped with computation."""
        total = self.total_copy_time()
        if total <= 0:
            return 1.0
        return 1.0 - self.exposed_time() / total
