"""Object-mode reference executor for differential testing.

This is the pre-rewrite dispatch loop (telemetry plane stripped — the
reference is only used for timing/trace equivalence): per task Python
object traversal, dict-based indegree/ready bookkeeping, a ``(free_at,
wid)`` worker heap, scalar :func:`memory_time` calls per access, and the
double ``TaskRecord`` construction around ``after_task``.
The production :class:`repro.tasking.executor.Executor` rewrote all of
this around a structure-of-arrays core; the property suite asserts both
produce byte-identical traces on random programs, with and without
migrations, Memory Mode and fault injection.  The context's dispatch
bookkeeping (last-use finish times, dispatched mask, frontier cursor) is
written inline, as the production loop does it.

The module also holds the scalar oracles of the machine model the
production code computes in vectorized or indexed form: the timing law
(:func:`latency_time`, :func:`bandwidth_time`, :func:`base_times`,
:func:`memory_time`, against ``executor.law_times``), and the copy-lane
queries (:func:`available_at`, :func:`in_flight_source`,
:func:`note_first_use`), which scan the engine's ``records`` backwards
instead of reading the per-object indices the production loop keeps.
"""

from __future__ import annotations

import heapq

from repro.memory.contention import share
from repro.memory.device import MISS_BASE_LATENCY_S, MemoryDevice
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.migration import MigrationEngine, MigrationRecord
from repro.tasking.access import ObjectAccess
from repro.tasking.executor import (
    OVERLAP_FACTOR,
    ExecContext,
    ExecutorConfig,
    PlacementPolicy,
)
from repro.tasking.graph import TaskGraph
from repro.tasking.scheduler import FIFOPolicy, make_scheduler
from repro.tasking.task import Task
from repro.tasking.trace import ExecutionTrace, TaskRecord

from tests.helpers import writes

__all__ = [
    "ReferenceExecutor",
    "available_at",
    "bandwidth_time",
    "base_times",
    "in_flight_source",
    "latency_time",
    "memory_time",
    "note_first_use",
    "placed_times",
]


# ----------------------------------------------------------------------
# Scalar timing law (roofline-style: max of latency and bandwidth laws)
# ----------------------------------------------------------------------
def bandwidth_time(device: MemoryDevice, read_bytes: float, write_bytes: float) -> float:
    """Time to stream the given traffic at full device bandwidth."""
    return read_bytes / device.read_bandwidth + write_bytes / device.write_bandwidth


def latency_time(
    device: MemoryDevice, n_loads: float, n_stores: float, mlp: float = 1.0
) -> float:
    """Time for ``n_loads``/``n_stores`` misses: each costs the fixed
    CPU-side base latency plus the device latency, and ``mlp``
    outstanding misses divide the exposed total."""
    return (
        n_loads * (MISS_BASE_LATENCY_S + device.read_latency_s)
        + n_stores * (MISS_BASE_LATENCY_S + device.write_latency_s)
    ) / mlp


def base_times(acc: ObjectAccess, device: MemoryDevice) -> tuple[float, float]:
    """The unscaled (latency, bandwidth) time pair of ``acc`` on ``device``."""
    lat = latency_time(device, acc.miss_loads, acc.miss_stores, acc.pattern.mlp)
    bw = bandwidth_time(device, acc.read_traffic_bytes, acc.write_traffic_bytes)
    return lat, bw


def memory_time(
    acc: ObjectAccess,
    device: MemoryDevice,
    bw_slowdown: float = 1.0,
    lat_slowdown: float = 1.0,
) -> float:
    """Time ``acc`` spends in main memory on ``device``: contention
    (``bw_slowdown``) queues only the bandwidth term, injected degradation
    (``lat_slowdown``) also stretches the latency term."""
    lat, bw = base_times(acc, device)
    return max(lat * lat_slowdown, bw * bw_slowdown)


def placed_times(task: Task, device: MemoryDevice) -> tuple[list[float], list[str]]:
    """``sample_task``'s ground-truth inputs for ``task`` with every
    object on ``device``."""
    accs = task.accesses.values()
    return [memory_time(acc, device) for acc in accs], [device.name] * len(accs)


# ----------------------------------------------------------------------
# Copy-lane queries, by scanning the engine's records
# ----------------------------------------------------------------------
def _latest_landed(engine: MigrationEngine, uid: int) -> MigrationRecord | None:
    for rec in reversed(engine.records):
        if rec.obj_uid == uid and not rec.failed:
            return rec
    return None


def available_at(engine: MigrationEngine, uid: int) -> float:
    """When the object's latest landed copy completes (0 if never copied)."""
    rec = _latest_landed(engine, uid)
    return rec.end_time if rec is not None else 0.0


def in_flight_source(engine: MigrationEngine, uid: int, time: float) -> str | None:
    """The device the object is still being copied *from* at ``time``
    (readers keep using that copy until the migration lands)."""
    rec = _latest_landed(engine, uid)
    return rec.src if rec is not None and rec.end_time > time else None


def note_first_use(engine: MigrationEngine, uid: int, time: float) -> None:
    """Stamp ``time`` as the first use of the object's newest landed copy
    that has none yet (drives the overlap statistic)."""
    for rec in reversed(engine.records):
        if rec.obj_uid == uid and not rec.failed and rec.needed_by == float("inf"):
            rec.needed_by = time
            return


class ReferenceExecutor:
    """Runs one task graph to completion in virtual time (object mode)."""

    def __init__(self, hms: HeterogeneousMemorySystem, config=None, injector=None):
        self.hms = hms
        self.config = config or ExecutorConfig()
        sched = self.config.scheduler
        if isinstance(sched, str):
            sched = make_scheduler(sched)
        self.scheduler = sched if sched is not None else FIFOPolicy()
        self.injector = injector

    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph, policy: PlacementPolicy) -> ExecutionTrace:
        cfg = self.config
        injector = self.injector
        engine = MigrationEngine(injector=injector)
        ctx = ExecContext(graph, self.hms, engine, cfg)

        workers = [(0.0, w) for w in range(cfg.n_workers)]
        heapq.heapify(workers)
        completions: list[tuple[float, int]] = []
        running: list[tuple[float, Task, frozenset[str]]] = []
        records: list[TaskRecord] = []

        policy.on_run_start(ctx)
        for obj in graph.objects:
            if not self.hms.is_placed(obj):
                self.hms.allocate(obj, self.hms.nvm)

        working_set = graph.total_object_bytes()
        self.scheduler.prepare(graph)
        if hasattr(self.scheduler, "bind"):
            self.scheduler.bind(self.hms)
        core = graph.exec_core()
        indegree = {t.tid: int(d) for t, d in zip(core.tasks, core.indeg0)}
        for t in graph.tasks:
            if indegree[t.tid] == 0:
                self.scheduler.push(t)

        n_done = 0
        n_total = len(graph.tasks)
        ready_at: dict[int, float] = {
            t.tid: 0.0 for t in graph.tasks if indegree[t.tid] == 0
        }

        def drain_completions(up_to: float) -> None:
            nonlocal n_done
            while completions and completions[0][0] <= up_to + 1e-15:
                t_done, tid = heapq.heappop(completions)
                n_done += 1
                for succ in (core.tasks[s] for s in core.succ[core.index[tid]]):
                    indegree[succ.tid] -= 1
                    if indegree[succ.tid] == 0:
                        ready_at[succ.tid] = t_done
                        self.scheduler.push(succ)

        capacity_lost = 0
        emergency_evictions = 0

        hms = self.hms
        scheduler = self.scheduler
        device_of = hms.device_of
        mark_dirty = hms.mark_dirty
        before_task = policy.before_task
        after_task = policy.after_task
        heappush = heapq.heappush
        heappop = heapq.heappop
        overlap_keep = 1.0 - OVERLAP_FACTOR

        while n_done < n_total:
            free_at, wid = heappop(workers)
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
                heappush(workers, (max(free_at, next_t), wid))
                continue

            task = scheduler.pop()
            now = max(free_at, ready_at.get(task.tid, 0.0))
            overhead_before = before_task(task, ctx, now)
            t0 = now + overhead_before

            avail = 0.0
            for obj, acc in task.accesses.items():
                if acc.accesses == 0:
                    continue
                if writes(acc.mode):
                    mark_dirty(obj)
                    a = available_at(engine, obj.uid)
                    if a > t0:
                        if a > avail:
                            avail = a
                    note_first_use(engine, obj.uid, t0)
                elif available_at(engine, obj.uid) <= t0:
                    note_first_use(engine, obj.uid, t0)
            start_exec = max(t0, avail)
            stall = start_exec - t0

            compute, mem = self._task_times(
                task, start_exec, running, working_set, engine
            )
            if compute >= mem:
                exec_time = compute + overlap_keep * mem
            else:
                exec_time = mem + overlap_keep * compute
            finish = start_exec + exec_time

            residency = {o.uid: device_of(o).name for o in task.accesses}
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
            overhead_after = after_task(task, record, ctx)
            worker_free = finish + overhead_after
            record = TaskRecord(
                task=task,
                worker=wid,
                start=now,
                finish=worker_free,
                compute_time=compute,
                memory_time=mem,
                overhead_time=overhead_before + overhead_after,
                stall_time=stall,
                residency=residency,
            )
            records.append(record)

            touched = frozenset(device_of(o).name for o in task.accesses)
            running.append((finish, task, touched))
            luf = ctx.last_use_finish
            for obj in task.accesses:
                if finish > luf.get(obj.uid, 0.0):
                    luf[obj.uid] = finish
            mask = ctx._dispatched_mask
            mask[ctx.graph.exec_core().index[task.tid]] = 1
            i = ctx._next_index
            while i < len(mask) and mask[i]:
                i += 1
            ctx._next_index = i
            heappush(completions, (worker_free, task.tid))
            heappush(workers, (worker_free, wid))

        makespan = max((r.finish for r in records), default=0.0)
        trace = ExecutionTrace(
            records=records,
            migrations=engine,
            makespan=makespan,
            n_workers=cfg.n_workers,
        )
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

    def _apply_capacity_losses(self, injector, engine, now):
        lost = 0
        evictions = 0
        for loss in injector.pop_capacity_losses(now):
            name = injector.device_name(loss.device)
            applied, evicted = self.hms.lose_capacity(name, loss.lose_bytes)
            for obj, was_dirty in evicted:
                if was_dirty:
                    engine.schedule(
                        obj.uid,
                        obj.size_bytes,
                        self.hms.dram,
                        self.hms.nvm,
                        request_time=now,
                        critical=True,
                    )
            injector.note_capacity_loss(loss, now, applied, len(evicted))
            lost += applied
            evictions += len(evicted)
        return lost, evictions

    # ------------------------------------------------------------------
    def _task_times(self, task, start, running, working_set, engine=None):
        cfg = self.config
        cutoff = start + 1e-15
        running[:] = [r for r in running if r[0] > cutoff]
        active: dict[str, int] = {}
        for _, _, devices in running:
            for d in devices:
                active[d] = active.get(d, 0) + 1

        inj = self.injector
        mem = 0.0
        if cfg.dram_cache is not None:
            n_str = sum(active.values()) + 1
            slow = 1.0 / share(n_str)
            for acc in task.accesses.values():
                if inj is None:
                    t_d = memory_time(acc, self.hms.dram, bw_slowdown=slow)
                    t_n = memory_time(acc, self.hms.nvm, bw_slowdown=slow)
                else:
                    t_d = memory_time(
                        acc,
                        self.hms.dram,
                        bw_slowdown=slow * inj.bw_penalty(self.hms.dram.name, start),
                        lat_slowdown=inj.lat_penalty(self.hms.dram.name, start),
                    )
                    t_n = memory_time(
                        acc,
                        self.hms.nvm,
                        bw_slowdown=slow * inj.bw_penalty(self.hms.nvm.name, start),
                        lat_slowdown=inj.lat_penalty(self.hms.nvm.name, start),
                    )
                mem += cfg.dram_cache.blend(t_d, t_n, working_set)
        else:
            device_of = self.hms.device_of
            active_get = active.get
            for obj, acc in task.accesses.items():
                dev = device_of(obj)
                if engine is not None:
                    src_name = in_flight_source(engine, obj.uid, start)
                    if src_name is not None and not writes(acc.mode):
                        dev = self._device_by_name(src_name, dev)
                slow = 1.0 / share(active_get(dev.name, 0) + 1)
                if inj is None:
                    mem += memory_time(acc, dev, bw_slowdown=slow)
                else:
                    mem += memory_time(
                        acc,
                        dev,
                        bw_slowdown=slow * inj.bw_penalty(dev.name, start),
                        lat_slowdown=inj.lat_penalty(dev.name, start),
                    )
        return task.compute_time, mem

    def _device_by_name(self, name, default):
        if name == self.hms.dram.name:
            return self.hms.dram
        if name == self.hms.nvm.name:
            return self.hms.nvm
        return default
