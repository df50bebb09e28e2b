"""Object-mode reference executor for differential testing.

This is the pre-rewrite dispatch loop (telemetry plane stripped — the
reference is only used for timing/trace equivalence): per task Python
object traversal, dict-based indegree/ready bookkeeping, a ``(free_at,
wid)`` worker heap, scalar :func:`memory_time` calls per access, and one
record tuple (:class:`tests.helpers.Row`) built on each side of
``after_task``: the hook gets the first record's duration, the trace the
second record with the hook's overhead folded in.  The records are
transposed into the trace's per-task columns at the end of the run.
The production :class:`repro.tasking.executor.Executor` rewrote all of
this around a structure-of-arrays core that appends straight to the
columns; the property suite asserts both produce byte-identical traces,
column by column, on random programs, with and without migrations,
Memory Mode and fault injection.  The context's dispatch
bookkeeping (last-use finish times, dispatched mask, frontier cursor) is
written inline, as the production loop does it.

The module also holds the scalar oracles of the machine model the
production code computes in vectorized or indexed form: the timing law
(:func:`latency_time`, :func:`bandwidth_time`, :func:`base_times`,
:func:`memory_time`, against ``executor.law_times``), and the copy-lane
queries (:func:`available_at`, :func:`in_flight_source`,
:func:`note_first_use`), which scan the engine's ``records`` backwards
instead of reading the per-object indices the production loop keeps.
It also keeps two oracles of ``EnergyReport.from_trace``, which sums
its per-row energies as columns gathered from the access table: the
walk over per-task residency dicts (:func:`energy_from_residency`; the
reference executor records those dicts in ``residencies``) and the
scalar walk over the trace's DRAM flags it replaced
(:func:`energy_from_flags`).
"""

from __future__ import annotations

import heapq

from repro.memory import energy
from repro.memory.contention import share
from repro.memory.device import MISS_BASE_LATENCY_S, DeviceKind, MemoryDevice
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
from repro.tasking.trace import ExecutionTrace

from tests.helpers import Row, writes

__all__ = [
    "ReferenceExecutor",
    "available_at",
    "bandwidth_time",
    "base_times",
    "energy_from_flags",
    "energy_from_residency",
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


def placed_times(task: Task, device: MemoryDevice) -> tuple[list[float], list[bool]]:
    """``sample_task``'s ground-truth inputs for ``task`` with every
    object on ``device``."""
    accs = task.accesses.values()
    on_dram = device.kind is DeviceKind.DRAM
    return [memory_time(acc, device) for acc in accs], [on_dram] * len(accs)


# ----------------------------------------------------------------------
# Energy accounting over per-task residency dicts
# ----------------------------------------------------------------------
def energy_from_residency(
    trace: ExecutionTrace,
    residencies: list[dict[int, str]],
    dram: MemoryDevice,
    nvm: MemoryDevice,
) -> energy.EnergyReport:
    """``EnergyReport.from_trace`` with each task's residency given as
    a ``uid -> device name`` dict (``residencies``, in dispatch order):
    one ``(read_coef, write_coef, is_nvm)`` triple per device name, an
    unknown name charged as NVM, summed in the production loop's order."""
    devices = {dram.name: dram, nvm.name: nvm}
    coef = {
        name: (
            (energy.DRAM_READ_ENERGY, energy.DRAM_WRITE_ENERGY, False)
            if dev.kind is DeviceKind.DRAM
            else (energy.NVM_READ_ENERGY, energy.NVM_WRITE_ENERGY, True)
        )
        for name, dev in devices.items()
    }
    rep = energy.EnergyReport()
    for task, residency in zip(trace.tasks, residencies, strict=True):
        for obj, acc in task.accesses.items():
            re_, we_, is_nvm = coef.get(residency.get(obj.uid, nvm.name), coef[nvm.name])
            wb = acc.write_traffic_bytes
            rep.dynamic_j += acc.read_traffic_bytes * re_ + wb * we_
            if is_nvm:
                rep.nvm_bytes_written += wb
    if trace.migrations is not None:
        for m in trace.migrations.records:
            src = devices.get(m.src, nvm)
            dst = devices.get(m.dst, nvm)
            rep.migration_j += energy._access_energy(src, m.nbytes, 0)
            rep.migration_j += energy._access_energy(dst, 0, m.nbytes)
            if dst.kind is DeviceKind.NVM:
                rep.nvm_bytes_written += m.nbytes
    rep.static_j += energy._static_energy(dram, trace.makespan)
    rep.static_j += energy._static_energy(nvm, trace.makespan)
    return rep


def energy_from_flags(
    trace: ExecutionTrace, dram: MemoryDevice, nvm: MemoryDevice
) -> energy.EnergyReport:
    """``EnergyReport.from_trace`` as one ``+=`` per access: each task's
    accesses (dispatch, then declaration order) zipped with the trace's
    DRAM flags, the DRAM or NVM coefficients picked per access."""
    rep = energy.EnergyReport()
    dynamic_j = 0.0
    nvm_written = 0.0
    flags = iter(trace.on_dram)
    for task in trace.tasks:
        for acc, on_dram in zip(task.accesses.values(), flags):
            wb = acc.write_traffic_bytes
            if on_dram:
                dynamic_j += (
                    acc.read_traffic_bytes * energy.DRAM_READ_ENERGY
                    + wb * energy.DRAM_WRITE_ENERGY
                )
            else:
                dynamic_j += (
                    acc.read_traffic_bytes * energy.NVM_READ_ENERGY
                    + wb * energy.NVM_WRITE_ENERGY
                )
                nvm_written += wb
    rep.dynamic_j = dynamic_j
    rep.nvm_bytes_written = nvm_written
    if trace.migrations is not None:
        for m in trace.migrations.records:
            src = dram if m.src == dram.name else nvm
            dst = dram if m.dst == dram.name else nvm
            rep.migration_j += energy._access_energy(src, m.nbytes, 0)
            rep.migration_j += energy._access_energy(dst, 0, m.nbytes)
            if dst.kind is DeviceKind.NVM:
                rep.nvm_bytes_written += m.nbytes
    rep.static_j += energy._static_energy(dram, trace.makespan)
    rep.static_j += energy._static_energy(nvm, trace.makespan)
    return rep


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
        #: Per task of the last run: ``uid -> device name`` at task start.
        self.residencies: list[dict[int, str]] = []

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
        records: list[Row] = []
        self.residencies = []
        on_dram = bytearray()

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
            self.residencies.append(residency)
            on_dram.extend(hms.in_dram(o) for o in task.accesses)
            record = Row(
                task=task,
                worker=wid,
                start=now,
                finish=finish,
                compute_time=compute,
                memory_time=mem,
                overhead_time=overhead_before,
                stall_time=stall,
            )
            overhead_after = after_task(task, record.duration, ctx)
            worker_free = finish + overhead_after
            record = Row(
                task=task,
                worker=wid,
                start=now,
                finish=worker_free,
                compute_time=compute,
                memory_time=mem,
                overhead_time=overhead_before + overhead_after,
                stall_time=stall,
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
        # The trace's per-task columns are declared in Row's field order.
        columns = [list(c) for c in zip(*records)] or [[] for _ in Row._fields]
        trace = ExecutionTrace(
            *columns,
            index=[core.index[r.task.tid] for r in records],
            accesses=core.accesses,
            migrations=engine,
            makespan=makespan,
            n_workers=cfg.n_workers,
            on_dram=on_dram,
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
