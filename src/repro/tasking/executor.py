"""Event-driven multi-worker executor over the heterogeneous memory system.

This is the ground-truth machine of the reproduction.  It simulates, in
virtual time:

- ``n_workers`` workers pulling ready tasks from a scheduling policy;
- per-task durations from compute time plus roofline memory time on the
  device each object *currently* resides on, with bandwidth contention;
- a helper-thread migration lane (the :class:`MigrationEngine`): placement
  policies request copies, tasks stall until the copies of data they touch
  have landed;
- software overhead charged by the placement policy (profiling, modeling,
  queue synchronization) — the "pure runtime cost" of the paper.

The core is array-shaped: task state lives in flat lists indexed by the
graph's dense spawn order (unresolved-dependency counts, ready times; see
:meth:`TaskGraph.exec_core`), and per-task access rows carry precomputed
base (latency, bandwidth) times for both tiers so the dispatch loop never
re-derives timing from Python object traversal.  Completions drain from a
flat event heap ordered by the deterministic ``(finish, tid)`` tie-break.
Every policy runs the same dispatch loop; one whose hooks are no-ops
never hands the migration engine a record, so the loop's copy-tracking
passes stay off for it.

Placement policies implement :class:`PlacementPolicy` and interact with
the machine only through :class:`ExecContext`; in particular they never
read ground-truth footprints — profiling goes through the sampling
profiler (``ctx.profile``), preserving the paper's measurement limits.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.metrics.telemetry import Telemetry

from repro.memory.cache import DRAMCacheModel
from repro.memory.contention import slowdown as contention_slowdown
from repro.memory.device import MISS_BASE_LATENCY_S, MemoryDevice
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.migration import MigrationEngine, MigrationRecord
from repro.tasking.dataobj import DataObject
from repro.tasking.graph import AccessCSR, TaskGraph
from repro.tasking.scheduler import FIFOPolicy, SchedulingPolicy, make_scheduler
from repro.tasking.task import Task
from repro.tasking.trace import ExecutionTrace, TaskRecord

__all__ = ["ExecutorConfig", "ExecContext", "PlacementPolicy", "Executor"]

#: Fraction of the smaller of (compute, memory) time hidden by overlap
#: within a task.  The runtime's analytic models ignore this — their CF
#: constant factors absorb it, as in the paper.
OVERLAP_FACTOR: float = 0.25


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs of the simulated machine.

    This is the single configuration object of the execution API: every
    machine knob, including the ready-queue scheduler, is carried here and
    nowhere else.
    """

    n_workers: int = 4
    #: When set, ignore software placement entirely and time every access
    #: through the hardware DRAM-cache model (Memory Mode baseline).
    dram_cache: DRAMCacheModel | None = None
    #: Sampling interval (CPU cycles) for the emulated counters.
    sampling_interval_cycles: int = 1000
    seed: int = 12345
    #: Ready-queue ordering: a :class:`SchedulingPolicy` instance, a name
    #: registered in :data:`repro.tasking.scheduler.SCHEDULERS`, or ``None``
    #: for the FIFO default.
    scheduler: "SchedulingPolicy | str | None" = None


@runtime_checkable
class PlacementPolicy(Protocol):
    """Hook interface for data-placement strategies."""

    name: str

    def on_run_start(self, ctx: "ExecContext") -> None:
        """Called once before time 0; do initial placement here."""

    def before_task(self, task: Task, ctx: "ExecContext", now: float) -> float:
        """Called when a worker picks ``task``; may request migrations.
        Returns software overhead (seconds) charged to the worker."""

    def after_task(self, task: Task, record: TaskRecord, ctx: "ExecContext") -> float:
        """Called when ``task`` completes; may profile/adapt.
        Returns software overhead (seconds) charged to the worker."""


def law_times(csr: AccessCSR, dev: MemoryDevice) -> tuple[np.ndarray, np.ndarray]:
    """The ground-truth timing law: per access of ``csr``, the unscaled
    (latency, bandwidth) time pair on ``dev``.

    This is the package's one implementation of the law.  Each miss
    costs the fixed CPU-side base latency plus the device latency, and
    the pattern's memory-level parallelism divides the exposed total;
    the bandwidth law streams the counted traffic at the device's read
    and write bandwidths.  The dispatch loop takes
    ``max(lat * lat_slowdown, bw * bw_slowdown)`` per access;
    :func:`memory_times` is the uncontended pick.
    """
    lat = (
        csr.miss_loads * (MISS_BASE_LATENCY_S + dev.read_latency_s)
        + csr.miss_stores * (MISS_BASE_LATENCY_S + dev.write_latency_s)
    ) / csr.mlp
    bw = csr.read_bytes / dev.read_bandwidth + csr.write_bytes / dev.write_bandwidth
    return lat, bw


def memory_times(csr: AccessCSR, dev: MemoryDevice) -> np.ndarray:
    """Uncontended memory time per access on ``dev``: the larger of the
    two laws, ties to the latency law (Python's ``max(lat, bw)``)."""
    lat, bw = law_times(csr, dev)
    return np.where(bw > lat, bw, lat)


def placed_memory_times(
    graph: TaskGraph, hms: HeterogeneousMemorySystem
) -> Callable[[Task], tuple[list[float], list[str]]]:
    """``times(task)``: per access of ``task`` (declaration order), its
    uncontended memory time on the device its object occupies when
    asked, and that device's name — the ground truth the sampling
    profiler's active fractions derive from."""
    core = graph.exec_core()
    csr = core.accesses
    index = core.index
    bounds = csr.indptr.tolist()
    on_dram = memory_times(csr, hms.dram).tolist()
    on_nvm = memory_times(csr, hms.nvm).tolist()
    placements = hms._placements
    dram_name = hms.dram.name

    def times(task: Task) -> tuple[list[float], list[str]]:
        lo = bounds[index[task.tid]]
        names = [placements[obj.uid].device for obj in task.accesses]
        mem = [
            on_dram[j] if name == dram_name else on_nvm[j]
            for j, name in enumerate(names, lo)
        ]
        return mem, names

    return times


def _timing_rows(
    csr: AccessCSR, dram: MemoryDevice, nvm: MemoryDevice
) -> tuple[tuple, ...]:
    """Per-task access rows with precomputed per-tier base times.

    One ``(rows, traffic, writer_uids)`` triple per dense task index:

    - ``rows``: ``(uid, writes, has_traffic, lat_dram, bw_dram, lat_nvm,
      bw_nvm)`` for every access — the :func:`law_times` pair for each
      tier, so the dispatch loop reduces every access to
      ``max(lat * lat_slowdown, bw * bw_slowdown)`` without touching the
      access object;
    - ``traffic``: the ``(uid, writes)`` projection of the rows that
      actually move bytes — the migration stall pass reads nothing else;
    - ``writer_uids``: traffic rows that write, for the dirty-bit pass.

    The device-independent columns come from the graph's access table,
    so retiming one graph for another machine (what-if variants on an
    interned graph, NVM sweeps) pays only the two vectorized law
    evaluations below.
    """
    lat_d, bw_d = law_times(csr, dram)
    lat_n, bw_n = law_times(csr, nvm)

    rows_flat = list(
        zip(
            csr.obj_uid[csr.obj].tolist(),
            csr.writes.tolist(),
            csr.traffic.tolist(),
            lat_d.tolist(),
            bw_d.tolist(),
            lat_n.tolist(),
            bw_n.tolist(),
        )
    )
    bounds = csr.indptr.tolist()
    return tuple(
        (tuple(rows_flat[bounds[i] : bounds[i + 1]]), traffic, writers)
        for i, (traffic, writers) in enumerate(zip(csr.task_traffic, csr.task_writers))
    )


class ExecContext:
    """The window through which a placement policy sees the machine.

    The context is a *view* over the executor's structure-of-arrays state:
    the lookahead frontier is a dense boolean dispatched mask plus a
    spawn-order cursor, and :meth:`remaining_indices` reads it as an
    array of task indices.  This surface is frozen — see
    ``docs/architecture.md`` §10 and ``tests/test_public_api.py``.
    """

    def __init__(
        self,
        graph: TaskGraph,
        hms: HeterogeneousMemorySystem,
        engine: MigrationEngine,
        config: ExecutorConfig,
    ):
        self.graph = graph
        self.hms = hms
        self.engine = engine
        self.config = config
        #: Telemetry plane for this run (``None`` = disabled, the default).
        #: Policies may read it to log audit entries or bump counters; all
        #: machine-side instrumentation hangs off it automatically.
        self.telemetry: "Telemetry | None" = None
        #: finish time of the latest dispatched task touching each object —
        #: the earliest dependency-safe start for a migration of that object.
        self.last_use_finish: dict[int, float] = {}
        #: dense dispatched mask + spawn-order cursor of the first
        #: not-yet-dispatched task; together they define the lookahead
        #: frontier :meth:`remaining_indices` reads.
        self._dispatched_mask = bytearray(len(graph.exec_core().tasks))
        self._next_index = 0
        from repro.profiling.sampler import SamplingProfiler

        self._profiler = SamplingProfiler(
            interval_cycles=config.sampling_interval_cycles,
            seed=config.seed,
        )
        #: :func:`placed_memory_times` of this graph and machine, built by
        #: the first :meth:`profile` call.
        self._placed_times = None

    # ------------------------------------------------------------------
    # Facilities for policies
    # ------------------------------------------------------------------
    @property
    def dram(self) -> MemoryDevice:
        return self.hms.dram

    @property
    def nvm(self) -> MemoryDevice:
        return self.hms.nvm

    def place_initial(self, obj: DataObject, device: MemoryDevice | str) -> None:
        """Free-of-charge placement before time 0 (initial data placement)."""
        if self.hms.is_placed(obj):
            self.hms.move(obj, device)
        else:
            self.hms.allocate(obj, device)
        tel = self.telemetry
        if tel is not None and tel.config.audit:
            dst = device.name if isinstance(device, MemoryDevice) else device
            tel.audit.log(
                0.0, "initial", obj_uid=obj.uid, size_bytes=obj.size_bytes,
                dst=dst, outcome="ok",
            )

    def request_migration(
        self,
        obj: DataObject,
        device: MemoryDevice | str,
        now: float,
        inputs: dict | None = None,
    ) -> MigrationRecord | None:
        """Move ``obj`` to ``device`` via the helper thread.

        The placement flips immediately in the state machine; tasks that
        touch the object stall until the copy lands.  Returns ``None`` when
        the object is already there.  The copy never starts before the
        object's last dependency-safe point (``last_use_finish``).

        Under fault injection the copy may fail permanently (bounded
        retries exhausted); the placement is then rolled back so the
        object stays serviceable from where it already lives, and the
        returned record carries ``failed=True``.

        ``inputs`` is opaque to the machine: it carries the benefit/cost
        model context the policy based this request on, recorded verbatim
        in the placement audit log when telemetry is enabled.
        """
        tel = self.telemetry
        audit = tel.audit if tel is not None and tel.config.audit else None
        src = self.hms.device_of(obj)
        dst_name = device.name if isinstance(device, MemoryDevice) else device
        if src.name == dst_name:
            if audit is not None:
                audit.log(
                    now, "noop", obj_uid=obj.uid, size_bytes=obj.size_bytes,
                    src=src.name, dst=dst_name, outcome="ok", inputs=inputs or {},
                )
            return None
        dst = self.hms.dram if dst_name == self.hms.dram.name else self.hms.nvm
        # Clean eviction: an unmodified DRAM copy still matches its NVM
        # shadow, so demotion is a remap, not a copy.
        if dst.name == self.hms.nvm.name and not self.hms.is_dirty(obj):
            self.hms.move(obj, dst)
            if audit is not None:
                audit.log(
                    now, "remap", obj_uid=obj.uid, size_bytes=obj.size_bytes,
                    src=src.name, dst=dst.name, outcome="ok", inputs=inputs or {},
                )
            return None
        safe = self.last_use_finish.get(obj.uid, 0.0)
        start = max(safe, 0.0)
        was_dirty = self.hms.is_dirty(obj)
        self.hms.move(obj, dst)
        rec = self.engine.schedule(
            obj.uid, obj.size_bytes, src, dst, request_time=now, earliest_start=start
        )
        if rec.failed:
            # Graceful degradation: the move never happened; the object
            # keeps being served from the source copy.
            self.hms.move(obj, src)
            if was_dirty:
                self.hms.mark_dirty(obj)
        if audit is not None:
            audit.log(
                now, "copy", obj_uid=obj.uid, size_bytes=obj.size_bytes,
                src=src.name, dst=dst.name,
                outcome="failed" if rec.failed else "ok",
                attempts=rec.attempts, inputs=inputs or {},
            )
        return rec

    def remaining_indices(self) -> np.ndarray:
        """Every not-yet-dispatched task, as a read-only int64 array of
        dense task indices (spawn order, indexing ``graph.exec_core()``).

        Array-shaped policies gather per-task data with it — for example
        from ``graph.exec_core().accesses`` — without touching ``Task``
        objects."""
        start = self._next_index
        pending = np.frombuffer(self._dispatched_mask, dtype=np.uint8)[start:] == 0
        idx = np.flatnonzero(pending)
        idx += start
        idx.flags.writeable = False
        return idx

    def profile(self, task: Task, record: TaskRecord):
        """Sample the task through the emulated hardware counters.

        This is the only sanctioned path from ground truth to a policy:
        it returns undercount-corrected but noisy per-object load/store
        counts and active fractions, like PEBS/IBS sampling would.
        """
        if self._placed_times is None:
            self._placed_times = placed_memory_times(self.graph, self.hms)
        mem_times, devices = self._placed_times(task)
        return self._profiler.sample_task(task, record.duration, mem_times, devices)

    def migration_backlog(self, now: float) -> float:
        """How far behind the helper thread's copy lane currently is —
        a copy requested now cannot start before ``now + backlog``."""
        return max(0.0, self.engine.lane_free_at - now)

    def profiling_overhead(self, duration: float) -> float:
        """Software cost of having sampled a task of ``duration`` seconds
        (the policy charges this to the worker as overhead)."""
        return self._profiler.overhead_time(duration)


class Executor:
    """Runs one task graph to completion in virtual time."""

    def __init__(
        self,
        hms: HeterogeneousMemorySystem,
        config: ExecutorConfig | None = None,
        injector: "FaultInjector | None" = None,
        telemetry: "Telemetry | None" = None,
    ):
        self.hms = hms
        self.config = config or ExecutorConfig()
        sched = self.config.scheduler
        if isinstance(sched, str):
            sched = make_scheduler(sched)
        self.scheduler: SchedulingPolicy = sched if sched is not None else FIFOPolicy()
        #: Optional fault injector (see :mod:`repro.faults`); ``None``
        #: leaves every timing and migration path byte-identical to a
        #: fault-free build.
        self.injector = injector
        #: Optional telemetry plane (see :mod:`repro.metrics`); ``None``
        #: costs one ``is not None`` check per hook point and nothing else.
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph, policy: PlacementPolicy) -> ExecutionTrace:
        cfg = self.config
        injector = self.injector
        telemetry = self.telemetry
        hms = self.hms
        engine = MigrationEngine(injector=injector)
        ctx = ExecContext(graph, hms, engine, cfg)
        ctx.telemetry = telemetry

        core = graph.exec_core()
        tasks = core.tasks
        index = core.index
        succ = core.succ
        n_total = len(tasks)
        nw = cfg.n_workers

        # Flat event heap of (finish, tid, dense_index): the (finish, tid)
        # prefix is the deterministic drain order; tids are unique so the
        # dense index is never compared.
        completions: list[tuple[float, int, int]] = []
        # Min-heap of (finish, tid, devices) for tasks still streaming,
        # with per-device stream counts maintained incrementally (the
        # drained-prefix pop below replaces a per-dispatch rebuild).
        running: list[tuple[float, int, frozenset[str]]] = []
        records: list[TaskRecord] = []

        if telemetry is not None:
            # Bind instruments before any placement so initial allocations
            # are counted too.  The sampler callables read the live
            # ``running`` list — exact at any virtual time because machine
            # state only changes at events.
            def busy_workers(t: float) -> float:
                return float(sum(1 for f, _tid, _d in running if f > t))

            def active_streams(device: str, t: float) -> int:
                return sum(
                    1 for f, _tid, devs in running if f > t and device in devs
                )

            # Export-side uid normalization: uids come from a process-global
            # counter, so digest equality across runs needs per-run ids.
            telemetry.uid_map = {obj.uid: i for i, obj in enumerate(core.objects)}
            telemetry.begin_run(
                hms,
                engine,
                nw,
                busy_workers=busy_workers,
                active_streams=active_streams,
            )

        # Initial placement: the policy places what it wants; everything
        # else lands on the NVM backing tier.
        policy.on_run_start(ctx)
        for obj in core.objects:
            if not hms.is_placed(obj):
                hms.allocate(obj, hms.nvm)

        working_set = graph.total_object_bytes()
        scheduler = self.scheduler
        scheduler.prepare(graph)
        if hasattr(scheduler, "bind"):
            scheduler.bind(hms)

        # Task and worker state as plain lists (a list subscript costs a
        # third of numpy scalar indexing): unresolved-dependency counts
        # and ready times by dense spawn order, free times by worker id.
        indeg_l = core.indeg0.tolist()
        for i in range(n_total):
            if not indeg_l[i]:
                scheduler.push(tasks[i])
        ready_l = [0.0] * n_total
        wfl = [0.0] * nw
        n_done = 0

        def drain_completions(up_to: float) -> None:
            nonlocal n_done
            cutoff = up_to + 1e-15
            while completions and completions[0][0] <= cutoff:
                t_done, _tid, di = heappop(completions)
                n_done += 1
                for si in succ[di]:
                    v = indeg_l[si] - 1
                    indeg_l[si] = v
                    if not v:
                        ready_l[si] = t_done
                        scheduler.push(tasks[si])

        capacity_lost = 0
        emergency_evictions = 0

        # Loop-invariant bindings for the dispatch loop: attribute and
        # bound-method lookups on these dominate the per-task overhead of
        # small-task graphs, and none of them can change mid-run.
        rows_all = _timing_rows(core.accesses, hms.dram, hms.nvm)
        dram_name = hms.dram.name
        nvm_name = hms.nvm.name
        placements = hms._placements
        dirty = hms._dirty
        avail_get = engine._available_at.get
        last_rec_get = engine._last_record.get
        pending_get = engine._pending_first_use.get
        eng_records = engine.records  # non-empty once any copy was scheduled
        slowdown = contention_slowdown
        dram_cache = cfg.dram_cache
        before_task = policy.before_task
        after_task = policy.after_task
        heappush = heapq.heappush
        heappop = heapq.heappop
        overlap_keep = 1.0 - OVERLAP_FACTOR
        luf = ctx.last_use_finish
        luf_get = luf.get
        dispatched = ctx._dispatched_mask
        records_append = records.append
        active: dict[str, int] = {}  # live stream count per device name
        active_get = active.get
        active_n = 0  # total (task, device) stream pairs among `running`

        while n_done < n_total:
            # Earliest-free worker; ties resolve to the lowest worker id
            # (first minimal slot), matching the (free_at, wid) heap order.
            free_at = wfl[0]
            wid = 0
            for w in range(1, nw):
                v = wfl[w]
                if v < free_at:
                    free_at = v
                    wid = w
            if telemetry is not None:
                telemetry.tick(free_at)
            drain_completions(free_at)
            if injector is not None:
                lost, evs = self._apply_capacity_losses(injector, engine, free_at)
                capacity_lost += lost
                emergency_evictions += evs
            if n_done >= n_total:
                break
            if len(scheduler) == 0:
                if not completions:
                    raise RuntimeError(
                        "deadlock: no ready tasks and no pending completions "
                        "(cyclic graph or lost wakeup)"
                    )
                next_t = completions[0][0]
                drain_completions(next_t)
                wfl[wid] = next_t if next_t > free_at else free_at
                continue

            task = scheduler.pop()
            di = index[task.tid]
            r = ready_l[di]
            now = free_at if free_at >= r else r
            overhead_before = before_task(task, ctx, now)
            t0 = now + overhead_before
            rows, traffic_rows, writer_uids = rows_all[di]
            eng_active = bool(eng_records)

            # Writers block until in-flight migrations of their data land;
            # readers proceed against the source copy (copy-then-redirect),
            # paying source-device timing until the copy completes.
            # Zero-traffic accesses (pure ordering declarations) don't touch
            # memory, so they neither stall nor count as first use.  An
            # engine with no copy history answers 0.0/None to every query,
            # so the whole pass degenerates to dirty marking.
            avail = 0.0
            if eng_active:
                for uid, writes in traffic_rows:
                    if writes:
                        if placements[uid].device == dram_name:
                            dirty.add(uid)
                        a = avail_get(uid, 0.0)
                        if a > t0 and a > avail:
                            avail = a
                        pending = pending_get(uid)
                        if pending:
                            pending.pop().needed_by = t0
                    elif avail_get(uid, 0.0) <= t0:
                        pending = pending_get(uid)
                        if pending:
                            pending.pop().needed_by = t0
            else:
                for uid in writer_uids:
                    if placements[uid].device == dram_name:
                        dirty.add(uid)
            start_exec = t0 if t0 >= avail else avail
            stall = start_exec - t0

            # Contention: pop drained streams off the running heap and
            # decrement their device counts (same permanently-removed set
            # as the old in-place prune, kept incremental).
            cutoff = start_exec + 1e-15
            while running and running[0][0] <= cutoff:
                devs = heappop(running)[2]
                for d in devs:
                    active[d] -= 1
                active_n -= len(devs)

            # Per-tier multipliers are task constants: stream counts only
            # change between dispatches.  Memory Mode streams every row
            # against both tiers, so one total count governs both.
            # Injected degradation slows both timing laws, unlike
            # contention which queues only the bandwidth term.
            if dram_cache is None:
                s_d = slowdown(active_get(dram_name, 0) + 1)
                s_n = slowdown(active_get(nvm_name, 0) + 1)
            else:
                s_d = s_n = slowdown(active_n + 1)
            pen_d = pen_n = 1.0
            if injector is not None:
                pen_d = injector.lat_penalty(dram_name, start_exec)
                s_d *= injector.bw_penalty(dram_name, start_exec)
                pen_n = injector.lat_penalty(nvm_name, start_exec)
                s_n *= injector.bw_penalty(nvm_name, start_exec)

            # Ground-truth memory time and residency snapshot, one pass.
            mem = 0.0
            residency: dict[int, str] = {}
            if dram_cache is not None:
                # Memory Mode: hardware cache, placement-oblivious.
                blend = dram_cache.blend
                for uid, _w, has_traffic, lat_d, bw_d, lat_n, bw_n in rows:
                    residency[uid] = placements[uid].device
                    if not has_traffic:
                        continue
                    lat = lat_d * pen_d
                    b = bw_d * s_d
                    t_d = lat if lat >= b else b
                    lat = lat_n * pen_n
                    b = bw_n * s_n
                    t_n = lat if lat >= b else b
                    mem += blend(t_d, t_n, working_set)
            else:
                for uid, writes, has_traffic, lat_d, bw_d, lat_n, bw_n in rows:
                    name = placements[uid].device
                    residency[uid] = name
                    if not has_traffic:
                        continue
                    # Readers of an in-flight migration still hit the source
                    # copy: time them on the source device.
                    if eng_active and not writes and avail_get(uid, 0.0) > start_exec:
                        rec = last_rec_get(uid)
                        if rec is not None:
                            name = rec.src
                    if name == dram_name:
                        lat = lat_d * pen_d
                        b = bw_d * s_d
                    else:
                        lat = lat_n * pen_n
                        b = bw_n * s_n
                    mem += lat if lat >= b else b

            compute = task.compute_time
            if compute >= mem:
                exec_time = compute + overlap_keep * mem
            else:
                exec_time = mem + overlap_keep * compute
            finish = start_exec + exec_time

            record = TaskRecord(
                task=task,
                worker=wid,
                start=now,
                finish=finish,
                compute_time=compute,
                memory_time=mem,
                overhead_time=overhead_before,
                stall_time=stall,
                residency=residency,
            )
            version_before_hook = hms._version
            overhead_after = after_task(task, record, ctx)
            worker_free_t = finish + overhead_after
            if overhead_after != 0.0:
                object.__setattr__(record, "finish", worker_free_t)
                object.__setattr__(
                    record, "overhead_time", overhead_before + overhead_after
                )
            records_append(record)
            if telemetry is not None:
                reg = telemetry.registry
                reg.counter(
                    "tasks_completed_total", help="Tasks run to completion"
                ).inc()
                reg.histogram(
                    "task_duration_seconds",
                    help="End-to-end task time incl. overhead (virtual seconds)",
                ).observe(record.duration)
                if stall > 0:
                    reg.histogram(
                        "task_stall_seconds",
                        help="Time spent waiting for in-flight migrations",
                    ).observe(stall)
                oh = overhead_before + overhead_after
                if oh > 0:
                    reg.counter(
                        "policy_overhead_seconds_total",
                        help="Software overhead charged by the placement policy",
                    ).inc(oh)

            # Devices this task streams against, *after* the policy hook —
            # after_task may have migrated some of its objects.  When no
            # placement changed under the hook (the common case, detected
            # by the HMS version counter), the residency snapshot already
            # holds the answer.
            if hms._version == version_before_hook:
                touched = frozenset(residency.values())
            else:
                touched = frozenset(placements[uid].device for uid in residency)
            heappush(running, (finish, task.tid, touched))
            for d in touched:
                active[d] = active_get(d, 0) + 1
            active_n += len(touched)
            # Dispatch bookkeeping the policy reads through the context:
            # each touched object's last dependency-safe point, and the
            # lookahead frontier (dispatched mask, cursor).
            for uid in residency:
                if finish > luf_get(uid, 0.0):
                    luf[uid] = finish
            dispatched[di] = 1
            i = ctx._next_index
            while i < n_total and dispatched[i]:
                i += 1
            ctx._next_index = i
            heappush(completions, (worker_free_t, task.tid, di))
            wfl[wid] = worker_free_t

        makespan = max((r.finish for r in records), default=0.0)
        trace = ExecutionTrace(
            records=records,
            migrations=engine,
            makespan=makespan,
            n_workers=cfg.n_workers,
        )
        if telemetry is not None:
            telemetry.end_run(makespan)
            trace.telemetry = telemetry.export()
        if injector is not None:
            trace.faults = {
                "plan": injector.plan.label(),
                "injected_copy_failures": injector.injected_copy_failures,
                "copy_retries": engine.retry_count,
                "recovered_copies": engine.recovered_count,
                "failed_migrations": engine.failed_count,
                "capacity_lost_bytes": capacity_lost,
                "emergency_evictions": emergency_evictions,
                "degraded_time_s": injector.degraded_time(makespan),
                "degraded_slices": injector.degraded_slices(makespan),
                "events": [
                    {
                        "kind": e.kind,
                        "time": e.time,
                        "device": e.device,
                        "detail": e.detail,
                        "nbytes": e.nbytes,
                    }
                    for e in injector.events
                ],
            }
        return trace

    def _apply_capacity_losses(
        self, injector: "FaultInjector", engine: MigrationEngine, now: float
    ) -> tuple[int, int]:
        """Apply every capacity-loss event due by ``now``: shrink the
        device, emergency-evict displaced residents, and write dirty
        evictees back through the helper lane (critical copies — their
        DRAM contents would otherwise be lost)."""
        tel = self.telemetry
        audit = tel.audit if tel is not None and tel.config.audit else None
        lost = 0
        evictions = 0
        for loss in injector.pop_capacity_losses(now):
            name = injector.device_name(loss.device)
            applied, evicted = self.hms.lose_capacity(name, loss.lose_bytes)
            for obj, was_dirty in evicted:
                if was_dirty:
                    rec = engine.schedule(
                        obj.uid,
                        obj.size_bytes,
                        self.hms.dram,
                        self.hms.nvm,
                        request_time=now,
                        critical=True,
                    )
                    if audit is not None:
                        audit.log(
                            now, "copy", obj_uid=obj.uid,
                            size_bytes=obj.size_bytes,
                            src=self.hms.dram.name, dst=self.hms.nvm.name,
                            outcome="ok", attempts=rec.attempts,
                            inputs={"reason": "emergency_writeback"},
                        )
                elif audit is not None:
                    audit.log(
                        now, "remap", obj_uid=obj.uid,
                        size_bytes=obj.size_bytes,
                        src=self.hms.dram.name, dst=self.hms.nvm.name,
                        outcome="ok",
                        inputs={"reason": "emergency_eviction"},
                    )
            injector.note_capacity_loss(loss, now, applied, len(evicted))
            lost += applied
            evictions += len(evicted)
        return lost, evictions
