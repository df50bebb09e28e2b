"""The runtime data manager (the paper's system, task-granularity).

``DataManagerPolicy`` plugs into the executor and implements the full
workflow:

- **online profiling** of the first ``profile_instances`` instances of
  each task type through the sampling counters;
- **modeling**: per-slot behaviour generalized over all instances of the
  type (:class:`TypeModel`), Eq.-1 sensitivity classification, benefit
  (Eqs. 2–5) and cost (Eqs. 6–7) models;
- **decision**: window-local and cross-run global knapsack plans, the
  better gain rate wins (re-decided as the window slides in local mode);
- **enforcement**: proactive helper-thread migrations at the earliest
  dependency-safe point, evicting the least valuable residents when DRAM
  is tight;
- **adaptation**: per-type duration drift beyond 10 % re-activates
  profiling and replanning;
- **initial placement** from static reference counts; **partitioning**
  of large objects (via ``partition_max_bytes``, applied by the runtime
  before execution).

Every piece of software work is charged to the worker as overhead, so the
"pure runtime cost" the paper reports is measured, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.baselines.policies import BasePolicy
from repro.core.adaptation import DeviationDetector
from repro.core.demand import DemandBatch
from repro.core.initial import initial_placement
from repro.core.lookahead import first_use_offsets_split
from repro.core.models import TypeModel
from repro.core.placement import PlacementPlan, PlanConfig, make_plan
from repro.profiling.calibration import CalibrationResult, calibrate
from repro.tasking.executor import ExecContext
from repro.tasking.task import Task
from repro.tasking.trace import TaskRecord
from repro.util.log import get_logger
from repro.util.units import US

__all__ = ["ManagerConfig", "DataManagerPolicy"]

log = get_logger(__name__)


@dataclass(frozen=True)
class ManagerConfig:
    """All knobs of the data manager (ablation surface)."""

    profile_instances: int = 2
    lookahead_tasks: int = 48
    decide_every: int = 24
    plan: PlanConfig = field(default_factory=PlanConfig)
    enable_global_search: bool = True
    enable_local_search: bool = True
    enable_initial_placement: bool = True
    enable_adaptation: bool = True
    #: When set, the runtime partitions partitionable objects larger than
    #: this before execution (chunking optimization).
    partition_max_bytes: int | None = None
    #: Software cost constants (charged as worker overhead).
    per_task_sync_overhead_s: float = 0.5 * US
    per_demand_plan_overhead_s: float = 2.0 * US
    per_plan_fixed_overhead_s: float = 20.0 * US
    per_migration_request_overhead_s: float = 1.0 * US
    #: Slow EWMA rate for post-profiling duration tracking.
    duration_alpha: float = 0.05
    #: Ping-pong breaker: after this many crossings an object is pinned.
    max_moves_per_object: int = 4
    #: Decision-overhead budget: fraction of machine time the planner may
    #: consume; beyond it the replan interval backs off exponentially
    #: (tiny-task programs with many objects would otherwise spend more
    #: time planning than working).
    decision_overhead_budget: float = 0.02
    #: Volume guard: stop issuing copies once the helper thread's lane is
    #: backed up this far.  Individually-justified migrations can still
    #: serialize into a pile-up on devices with storage-class copy
    #: bandwidth (ReRAM writes); this bounds the pile.
    max_lane_backlog_s: float = 0.25


# Calibration results are per-platform, reused across runs and policies,
# exactly as the paper's offline step prescribes.
_CALIBRATION_CACHE: dict[tuple[str, str, int, int], CalibrationResult] = {}


class DataManagerPolicy(BasePolicy):
    """Runtime data placement manager for task-parallel programs."""

    name = "tahoe"

    def __init__(
        self,
        config: ManagerConfig | None = None,
        calibration: CalibrationResult | None = None,
        name: str | None = None,
    ):
        self.config = config or ManagerConfig()
        self._given_calibration = calibration
        if name:
            self.name = name
        # Per-run state, created in on_run_start.
        self.calib: CalibrationResult | None = None
        self._models: dict[str, TypeModel] = {}
        self._stale_models: dict[str, TypeModel] = {}
        self._detector = DeviationDetector()
        self._mode: str | None = None
        self._plan: PlacementPlan | None = None
        self._tasks_since_decision = 0
        self._replan_needed = False
        self._move_counts: dict[int, int] = {}
        self._skepticism = 1.0
        self._watch: dict[str, tuple[float, int]] | None = None
        self._replan_interval = self.config.decide_every
        self._decision_overhead = 0.0
        self._type_names: list[str] | None = None
        self._sync_overhead_s = self.config.per_task_sync_overhead_s
        self._by_uid: dict[int, Any] | None = None
        #: tid -> (model, model.n_profiles, flattened access rows); see
        #: :meth:`_demand_stats_split`.
        self._proj_cache: dict[int, tuple[TypeModel, int, list[tuple]]] = {}
        self.stats: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Executor hooks
    # ------------------------------------------------------------------
    @property
    def partition_max_bytes(self) -> int | None:
        """Read by the runtime to apply the chunking transformation."""
        return self.config.partition_max_bytes

    def on_run_start(self, ctx: ExecContext) -> None:
        self._models = {}
        self._stale_models = {}
        self._detector = DeviationDetector()
        self._mode = None
        self._plan = None
        self._tasks_since_decision = 0
        self._replan_needed = False
        self._move_counts: dict[int, int] = {}
        self._skepticism = 1.0
        self._watch = None
        self._replan_interval = self.config.decide_every
        self._decision_overhead = 0.0
        self._type_names = None
        self._sync_overhead_s = self.config.per_task_sync_overhead_s
        self.stats = {
            "replans": 0,
            "profiled_tasks": 0,
            "migrations_requested": 0,
            "adaptation_triggers": 0,
        }
        # Resilience counters exist only under fault injection so that
        # fault-free runs keep byte-identical summaries.
        if ctx.engine.injector is not None:
            self.stats["migrations_failed"] = 0
            self.stats["migrations_recovered"] = 0
        # Per-run object index: the graph's object set is fixed once the
        # run starts (partitioning happens before execution), so the
        # uid -> object map is built once per graph version and shared
        # across runs (bench reps rebuild the policy, not the graph).
        uid_memo = getattr(ctx.graph, "_by_uid_memo", None)
        if uid_memo is None or uid_memo[0] != ctx.graph._version:
            uid_memo = ctx.graph._by_uid_memo = (
                ctx.graph._version,
                {o.uid: o for o in ctx.graph.objects},
            )
        self._by_uid = uid_memo[1]
        self._proj_cache = {}
        self.calib = self._given_calibration or self._platform_calibration(ctx)
        if self.config.enable_initial_placement:
            # The chosen set is a pure function of the graph's object list
            # and the DRAM budget; graphs are interned across runs, so the
            # greedy fill is cached on the graph keyed by capacity.
            memo = getattr(ctx.graph, "_initial_placement_memo", None)
            if memo is None:
                memo = ctx.graph._initial_placement_memo = {}
            # The graph version guards against post-run graph mutation.
            # The memo stores the chosen objects already in graph order,
            # so each run loops over the selection, not every object; the
            # per-run fits test keeps the sequential capacity semantics.
            key = (ctx.graph._version, ctx.dram.capacity_bytes)
            chosen_objs = memo.get(key)
            if chosen_objs is None:
                chosen = initial_placement(
                    ctx.graph.objects, ctx.dram.capacity_bytes
                )
                chosen_objs = memo[key] = [
                    o for o in ctx.graph.objects if o.uid in chosen
                ]
            for obj in chosen_objs:
                if ctx.hms.dram_fits(obj.size_bytes):
                    ctx.place_initial(obj, ctx.dram)

    def before_task(self, task: Task, ctx: ExecContext, now: float) -> float:
        overhead = self._sync_overhead_s
        self._tasks_since_decision += 1
        # Inlined ``_should_replan`` with the cheap flag tests hoisted in
        # front of the model lookup: the common case (no trigger pending,
        # interval not reached) then skips the dict probes entirely.  The
        # decision is boolean-identical — a missing model vetoes either
        # trigger, and the flags don't change between the two orderings.
        if (
            self._replan_needed
            or self._tasks_since_decision >= self._replan_interval
        ) and self._model_for(task.type_name) is not None:
            overhead += self._replan(ctx, now + overhead)
        return overhead

    def after_task(self, task: Task, record: TaskRecord, ctx: ExecContext) -> float:
        cfg = self.config
        tname = task.type_name
        duration = record.duration
        model = self._models.get(tname)
        if model is None:
            model = TypeModel(tname)
            self._models[tname] = model
        if model.n_profiles >= cfg.profile_instances:
            # Steady state (the per-task hot path): EWMA duration tracking
            # plus drift detection against a slow baseline.  Both the
            # ``track_duration`` fold and the no-drift arm of ``_adapt``
            # are inlined statement-for-statement — this path runs once
            # per task and the two call frames were its main cost.
            model.n_instances += 1
            rd = model.recent_duration
            if rd <= 0.0:
                model.recent_duration = duration
            else:
                model.recent_duration = rd + (duration - rd) * 0.3
            if cfg.enable_adaptation:
                if self._detector.observe(tname, duration, task.iteration):
                    self._on_drift(model, tname)
                else:
                    model.mean_duration += (
                        duration - model.mean_duration
                    ) * cfg.duration_alpha
            return 0.0
        profile = ctx.profile(task, record)
        model.observe(profile, dram_name=ctx.dram.name)
        overhead = ctx.profiling_overhead(duration)
        self.stats["profiled_tasks"] += 1
        if model.n_profiles >= cfg.profile_instances:
            self._stale_models.pop(tname, None)
            self._replan_needed = True
            # The instance that completes profiling also enters drift
            # tracking immediately (same call, as the combined branch in
            # the pre-split form did).
            if cfg.enable_adaptation:
                self._adapt(model, tname, duration, task.iteration, cfg)
        return overhead

    def _adapt(
        self, model: TypeModel, tname: str, duration: float, iteration: int,
        cfg: ManagerConfig,
    ) -> None:
        """Drift check for one completed instance: a fast step change
        beyond the threshold re-activates profiling for the type."""
        if self._detector.observe(tname, duration, iteration):
            self._on_drift(model, tname)
        else:
            model.mean_duration += (
                duration - model.mean_duration
            ) * cfg.duration_alpha

    def _on_drift(self, model: TypeModel, tname: str) -> None:
        """Slow path shared by the inline steady-state check and
        :meth:`_adapt`: archive the drifted model and re-profile."""
        self._stale_models[tname] = model
        self._models[tname] = TypeModel(tname)
        self._replan_needed = True
        self.stats["adaptation_triggers"] += 1
        log.debug("adaptation trigger: type=%s re-profiling", tname)

    # ------------------------------------------------------------------
    # Decision machinery
    # ------------------------------------------------------------------
    def _model_for(self, type_name: str) -> TypeModel | None:
        m = self._models.get(type_name)
        if m is not None and m.ready:
            return m
        s = self._stale_models.get(type_name)
        if s is not None and s.ready:
            return s
        return None

    def _demand_stats_split(
        self, tasks: list[Task], window_len: int, need_window: bool = True
    ) -> tuple[tuple[DemandBatch, float], tuple[DemandBatch, float]]:
        """(window, full-horizon) demand batches from a single pass.

        The projection accumulates straight into parallel columns (one
        Python list per :class:`DemandBatch` field, indexed by a
        uid -> dense-row dict in first-touch order) instead of a dict of
        per-object ``ObjectStats``.  The accumulation statements are the
        exact op sequence ``ObjectStats.add`` runs — the sequential
        weighted means for confidence and ``dram_frac`` have data-
        dependent divisions per step and must not be reassociated — so
        the frozen columns are bitwise what the retired object path
        produced, in the same row order the plan dicts and knapsack saw.

        Accumulation over the window prefix is exactly what an
        independent pass over ``tasks[:window_len]`` would run, so
        snapshotting the columns at the boundary (plain list copies)
        yields bitwise-identical window stats; the originals then keep
        accumulating into the full-horizon projection.

        ``need_window=False`` skips the boundary snapshot when the caller
        will not build a window-scoped plan; the snapshot has no effect
        on the full-horizon accumulators, so the global result is
        unchanged.
        """
        # Column accumulators, indexed by row[uid] (first-touch order).
        row_of: dict[int, int] = {}
        uids: list[int] = []
        sizes: list[int] = []
        loads_c: list[float] = []
        stores_c: list[float] = []
        misses_c: list[float] = []
        bw_c: list[float] = []
        ntasks_c: list[int] = []
        conf_c: list[float] = []
        mem_c: list[float] = []
        dfrac_c: list[float] = []
        horizon = 0.0
        win_batch: DemandBatch | None = None
        win_horizon = 0.0
        model_for = self._model_for
        proj_cache = self._proj_cache
        # Per-type model resolution is invariant across the pass (the
        # model dicts only change between replans), so resolve each type
        # once instead of per task.
        model_of_type: dict[str, TypeModel | None] = {}
        type_get = model_of_type.get
        # Out-of-model fallback row: field-for-field what an empty
        # ``SlotStats()`` reports (confidence 1.0, everything else zero).
        empty_row = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)

        # Accumulator bindings ride in as default arguments: the inner
        # loop is the projection's hot path, and default args are plain
        # locals (LOAD_FAST) where closure cells cost a dereference each.
        def accumulate(
            chunk,
            row_of=row_of, uids=uids, sizes=sizes,
            loads_c=loads_c, stores_c=stores_c, misses_c=misses_c,
            bw_c=bw_c, ntasks_c=ntasks_c, conf_c=conf_c, mem_c=mem_c,
            dfrac_c=dfrac_c, model_of_type=model_of_type, type_get=type_get,
            model_for=model_for, proj_cache=proj_cache,
            empty_row=empty_row,
        ) -> None:
            nonlocal horizon
            for t in chunk:
                tname = t.type_name
                model = type_get(tname, empty_row)
                if model is empty_row:
                    model = model_of_type[tname] = model_for(tname)
                if model is None:
                    continue
                horizon += model.mean_duration
                # A task's flattened (uid, size, slot row) list is
                # invariant while its type model version (n_profiles)
                # holds, and each task is re-projected by every later
                # replan — memoize it.
                n_profiles = model.n_profiles
                try:
                    cached_model, cached_np, task_rows = proj_cache[t.tid]
                    if cached_model is not model or cached_np != n_profiles:
                        raise KeyError  # stale entry: model replaced/regrown
                except KeyError:
                    rows = model.slot_rows()
                    n_slots = len(rows)
                    task_rows = []
                    for j, obj in enumerate(t.accesses):
                        if n_slots:
                            row = rows[j] if j < n_slots else rows[-1]
                        else:
                            row = empty_row
                        task_rows.append((obj.uid, obj.size_bytes) + row)
                    proj_cache[t.tid] = (model, n_profiles, task_rows)
                for uid, size_bytes, loads, stores, misses, bw, conf, mem_s, dfrac in task_rows:
                    # Zero-cost try/except (3.11+) beats a dict.get call
                    # here: almost every row visit is a re-touch of an
                    # already-registered uid, so the except arm is cold.
                    try:
                        r = row_of[uid]
                    except KeyError:
                        r = row_of[uid] = len(uids)
                        uids.append(uid)
                        sizes.append(size_bytes)
                        loads_c.append(0.0)
                        stores_c.append(0.0)
                        misses_c.append(0.0)
                        bw_c.append(0.0)
                        ntasks_c.append(0)
                        conf_c.append(1.0)
                        mem_c.append(0.0)
                        dfrac_c.append(0.0)
                    # Inlined ObjectStats.add — identical statements in
                    # identical order, so the accumulators stay bitwise
                    # equal.
                    old_misses = misses_c[r]
                    new_misses = old_misses + misses
                    if new_misses > 0:
                        conf_c[r] = (
                            conf_c[r] * old_misses + conf * misses
                        ) / new_misses
                    old_mem = mem_c[r]
                    new_mem = old_mem + mem_s
                    if new_mem > 0:
                        dfrac_c[r] = (
                            dfrac_c[r] * old_mem + dfrac * mem_s
                        ) / new_mem
                    mem_c[r] = new_mem
                    loads_c[r] += loads
                    stores_c[r] += stores
                    misses_c[r] = new_misses
                    if bw > bw_c[r]:
                        bw_c[r] = bw
                    ntasks_c[r] += 1

        # The window is a prefix: accumulate it, snapshot, then continue
        # with the suffix — no per-task boundary test in the hot loop.
        if need_window and len(tasks) > window_len:
            accumulate(tasks[:window_len])
            win_batch = DemandBatch.from_columns(
                list(uids), list(sizes), list(loads_c), list(stores_c),
                list(misses_c), list(bw_c), list(ntasks_c), list(conf_c),
                list(mem_c), list(dfrac_c),
            )
            win_horizon = horizon
            accumulate(tasks[window_len:])
        else:
            accumulate(tasks)
        batch = DemandBatch.from_columns(
            uids, sizes, loads_c, stores_c, misses_c, bw_c, ntasks_c,
            conf_c, mem_c, dfrac_c,
        )
        if len(tasks) <= window_len:
            win_batch, win_horizon = batch, horizon
        elif win_batch is None:
            win_batch = DemandBatch.empty()
        return (win_batch, win_horizon), (batch, horizon)

    def _duration_of(self, task: Task) -> float:
        model = self._model_for(task.type_name)
        return model.mean_duration if model is not None else 1e-4

    def _update_skepticism(self) -> None:
        """Realized-benefit feedback (monitor-and-adjust).

        After a round of migrations, the affected task types should get
        faster.  If their recent durations do not improve, the benefit
        models are overestimating on this workload (e.g. pricing exposed
        latency that memory-level parallelism actually hides), so all
        future benefits are scaled down; when improvements do materialize,
        trust is restored.  This is the task-granularity counterpart of
        the paper's post-movement performance monitoring.
        """
        if self._watch is not None:
            ratios = []
            for tname, (old_recent, old_n) in self._watch.items():
                m = self._models.get(tname)
                if m is None or not m.ready or old_recent <= 0:
                    continue
                if m.n_instances < old_n + 2:
                    continue  # not enough fresh instances to judge
                ratios.append(m.recent_duration / old_recent)
            if ratios:
                ratios.sort()
                med = ratios[len(ratios) // 2]
                if med > 0.97:
                    self._skepticism = max(0.1, self._skepticism * 0.5)
                elif med < 0.92:
                    self._skepticism = min(1.0, self._skepticism * 1.5)
                self._watch = None
        self.stats["skepticism"] = self._skepticism

    def _snapshot_watch(self) -> None:
        """Arm the feedback monitor after issuing migrations."""
        self._watch = {
            t: (m.recent_duration, m.n_instances)
            for t, m in self._models.items()
            if m.ready
        }

    def _parallel_slack(self, tasks: list[Task], ctx: ExecContext) -> float:
        """Throughput-vs-wave discriminator for the additive benefit model.

        Per dependence level of the horizon, ask how the level's makespan
        responds to speeding one task:

        - width 1 (serial segment): the task *is* the critical path —
          full benefit;
        - width >= ~2 waves of workers: throughput-limited — level time is
          total work over workers, so additive benefits are sound;
        - a single wave of parallel siblings (width ~ workers, e.g. MG's
          eight smooths on eight workers): the level ends when its slowest
          sibling does, so speeding one task contributes only ~1/width.

        The returned scale is the task-weighted mean of per-level shares.
        """
        if not tasks:
            return 1.0
        depths = ctx.graph.depths()
        widths: dict[int, int] = {}
        for t in tasks:
            d = depths[t.tid]
            widths[d] = widths.get(d, 0) + 1
        workers = max(1, ctx.config.n_workers)
        num = 0.0
        for width in widths.values():
            if width <= 1:
                share = 1.0
            else:
                waves = width / workers
                if waves >= 2.0:
                    share = 1.0
                else:
                    base = 1.0 / width
                    share = base + (1.0 - base) * max(0.0, waves - 1.0)
            num += width * share
        return num / len(tasks)

    def _replan(self, ctx: ExecContext, now: float) -> float:
        """Re-run both searches, pick the better, enforce it.  Returns the
        software overhead charged for the decision."""
        cfg = self.config
        self._replan_needed = False
        self._tasks_since_decision = 0
        self.stats["replans"] += 1
        self._update_skepticism()

        remaining = ctx.remaining_view()
        window = remaining[: cfg.lookahead_tasks]
        n_workers = ctx.config.n_workers

        plans: list[tuple[float, PlacementPlan]] = []
        overhead = cfg.per_plan_fixed_overhead_s

        # Endgame: once the window covers every remaining task the local
        # search would rebuild the identical plan and lose the stable-sort
        # tie to the global scope, so only its bookkeeping overhead is
        # charged and the duplicate solve (and the window-boundary stats
        # snapshot feeding it) is skipped.
        scopes_coincide = (
            len(remaining) <= cfg.lookahead_tasks
            and cfg.enable_global_search
            and cfg.enable_local_search
        )

        need_window = cfg.enable_local_search and not scopes_coincide

        # Per-type mean durations are fixed for the duration of one
        # replan, so the offsets pass indexes them by type instead of
        # calling back per task; 1e-4 is ``_duration_of``'s modelless
        # fallback.
        type_names = self._type_names
        if type_names is None:
            type_names = self._type_names = sorted(
                {t.type_name for t in ctx.graph.tasks}
            )
        dur_map: dict[str, float] = {}
        for tname in type_names:
            m = self._model_for(tname)
            dur_map[tname] = m.mean_duration if m is not None else 1e-4
        # Both scopes share one pass over the remaining tasks: the window
        # is a prefix, so its demand stats and first-use offsets fall out
        # of the full-horizon accumulation bitwise unchanged.
        (local_batch, local_horizon), (global_batch, global_horizon) = (
            self._demand_stats_split(
                remaining, cfg.lookahead_tasks, need_window=need_window
            )
        )
        local_offsets, global_offsets = first_use_offsets_split(
            remaining, cfg.lookahead_tasks, self._duration_of, n_workers,
            duration_by_type=dur_map,
        )
        resident_uids = ctx.hms.dram_resident_uids()
        dram_capacity = ctx.dram.capacity_bytes
        dram_used = ctx.hms.dram_used_bytes()

        def build(
            scope: str,
            batch: DemandBatch,
            horizon: float,
            offsets: dict[int, float],
            tasks: list[Task],
        ) -> tuple[PlacementPlan, float, float] | None:
            if len(batch) == 0:
                return None
            if cfg.plan.use_parallel_slack:
                slack = self._parallel_slack(tasks, ctx)
            else:
                slack = 1.0
            # Placement columns (residency + overlap offsets) attach to
            # the scope-shared projection batch without copying it.
            offsets_get = offsets.get
            uid_list = batch.uid_list
            n = len(uid_list)
            in_dram = np.fromiter(
                (u in resident_uids for u in uid_list), np.bool_, count=n
            )
            first_use = np.fromiter(
                (offsets_get(u, 0.0) for u in uid_list), np.float64, count=n
            )
            plan = make_plan(
                scope,
                batch.with_placement(in_dram, first_use),
                dram_capacity,
                dram_used,
                ctx.nvm,
                ctx.dram,
                self.calib,
                cfg.plan,
                benefit_scale=self._skepticism * slack,
            )
            # Delta gain: what enforcing the plan buys *over doing
            # nothing* — the plan set's worth minus the worth of the
            # current resident set under the same demand model.
            # Comparing raw set worth would favour whichever scope sees
            # more total traffic, not whichever scope's enforcement helps
            # more.  Skipping non-positive weights is exact: adding
            # ``max(w, 0.0)`` for ``w <= 0`` adds a zero, which never
            # changes the non-negative accumulator.
            weights_get = plan.weights.get
            current = 0.0
            for uid in resident_uids:
                w = weights_get(uid, 0.0)
                if w > 0.0:
                    current += w
            delta = plan.predicted_gain - current
            return plan, delta, max(horizon / max(1, n_workers), 1e-9)

        if cfg.enable_global_search:
            built = build(
                "global", global_batch, global_horizon, global_offsets, remaining
            )
            if built is not None:
                plan, delta, horizon = built
                plans.append((delta / horizon, plan))
                overhead += len(plan.weights) * cfg.per_demand_plan_overhead_s
                if scopes_coincide:
                    overhead += len(plan.weights) * cfg.per_demand_plan_overhead_s
        if cfg.enable_local_search and not scopes_coincide:
            built = build("local", local_batch, local_horizon, local_offsets, window)
            if built is not None:
                plan, delta, horizon = built
                plans.append((delta / horizon, plan))
                overhead += len(plan.weights) * cfg.per_demand_plan_overhead_s

        if not plans:
            return overhead
        plans.sort(key=lambda p: -p[0])
        best_rate, best = plans[0]
        self._mode = best.scope
        self._plan = best
        log.debug(
            "replan@%.4fs: scope=%s set=%d gain=%.3g skepticism=%.2f",
            now, best.scope, len(best.dram_set), best.predicted_gain, self._skepticism,
        )
        tel = ctx.telemetry
        if tel is not None and tel.config.audit:
            tel.audit.log(
                now, "plan",
                inputs={
                    "scope": best.scope,
                    "dram_set_size": len(best.dram_set),
                    "predicted_gain": best.predicted_gain,
                    "gain_rate": best_rate,
                    "skepticism": self._skepticism,
                },
            )
        migs_before = self.stats["migrations_requested"]
        overhead += self._enforce(best, ctx, now, resident_uids)
        if self.stats["migrations_requested"] > migs_before and self._watch is None:
            self._snapshot_watch()
        self._throttle_planning(overhead, now, ctx)
        return overhead

    def _throttle_planning(self, overhead: float, now: float, ctx: ExecContext) -> None:
        """Keep cumulative decision overhead under its machine-time budget
        by widening (or re-narrowing) the periodic replan interval."""
        cfg = self.config
        self._decision_overhead += overhead
        machine_time = max(now, 1e-9) * max(1, ctx.config.n_workers)
        if self._decision_overhead > cfg.decision_overhead_budget * machine_time:
            self._replan_interval = min(self._replan_interval * 2, 4096)
        elif self._replan_interval > cfg.decide_every:
            self._replan_interval = max(cfg.decide_every, self._replan_interval // 2)
        self.stats["replan_interval"] = self._replan_interval

    def _enforce(
        self,
        plan: PlacementPlan,
        ctx: ExecContext,
        now: float,
        resident_uids: set[int] | None = None,
    ) -> float:
        """Issue helper-thread migrations to realize ``plan``.

        Enforcement is *lane-aware*: the helper thread copies serially, so
        a promotion whose copy cannot land before the object's first use
        would stall the application on its own migration.  Each candidate
        is admitted only if its estimated exposed stall stays below its
        predicted benefit; the lane backlog is tracked as copies (and the
        evictions that make room for them) are enqueued.

        ``resident_uids`` is the caller's DRAM-residency snapshot (no
        moves happen between a replan's snapshot and its enforcement);
        when omitted it is taken here.
        """
        from repro.memory.migration import copy_time

        cfg = self.config
        by_uid = self._by_uid
        if by_uid is None:
            by_uid = self._by_uid = {o.uid: o for o in ctx.graph.objects}
        if resident_uids is None:
            resident_uids = ctx.hms.dram_resident_uids()
        overhead = 0.0
        tel = ctx.telemetry
        audit = tel.audit if tel is not None and tel.config.audit else None

        def refuse(obj, reason: str, **inputs) -> None:
            if audit is not None:
                audit.log(
                    now, "skip", obj_uid=obj.uid, size_bytes=obj.size_bytes,
                    src=ctx.hms.device_of(obj).name, dst=ctx.dram.name,
                    inputs={"reason": reason, **inputs},
                )

        weights_get = plan.weights.get
        incoming = [
            by_uid[uid]
            for uid in sorted(plan.dram_set, key=lambda u: -weights_get(u, 0.0))
            if uid not in resident_uids and uid in by_uid
        ]
        if not incoming:
            return overhead

        backlog = ctx.migration_backlog(now)
        victims = [
            o for o in ctx.hms.objects_in_dram() if o.uid not in plan.dram_set
        ]
        victims.sort(key=lambda o: (plan.weights.get(o.uid, 0.0), -o.size_bytes))

        for obj in incoming:
            if backlog > cfg.max_lane_backlog_s:
                refuse(obj, "lane_backlog", backlog=backlog)
                break  # lane pile-up: defer the rest to a later replan
            # Ping-pong breaker: an object that keeps crossing the bus is
            # being mispredicted; pin it where it is.
            if self._move_counts.get(obj.uid, 0) >= cfg.max_moves_per_object:
                refuse(obj, "pinned", moves=self._move_counts[obj.uid])
                continue
            ct = copy_time(obj.size_bytes, ctx.nvm, ctx.dram, ctx.config.migration_overhead_s)
            first_use = plan.first_use.get(obj.uid, 0.0)
            in_weight = plan.weights.get(obj.uid, 0.0)
            # Evictions needed for this object also occupy the lane, cost
            # a copy, and forfeit the victims' own remaining benefit.
            evict_time = 0.0
            victim_value = 0.0
            planned_victims = []
            free = ctx.hms.dram_free_bytes()
            vi = 0
            while free < obj.size_bytes and vi < len(victims):
                v = victims[vi]
                vi += 1
                planned_victims.append(v)
                if ctx.hms.is_dirty(v):  # clean evictions are remaps: free
                    ct_v = copy_time(
                        v.size_bytes, ctx.dram, ctx.nvm, ctx.config.migration_overhead_s
                    )
                    evict_time += ct_v
                    # A dirty victim's writers stall until the copy-back
                    # lands; the part of the copy its next use cannot hide
                    # is a real cost of the swap.
                    victim_value += max(
                        0.0, ct_v - plan.first_use.get(v.uid, 0.0)
                    )
                victim_value += max(plan.weights.get(v.uid, 0.0), 0.0)
                free += v.size_bytes
            if free < obj.size_bytes:
                refuse(obj, "no_room", free=free)
                continue  # cannot make room even after all victims
            # Economics of the whole swap: the newcomer's net weight must
            # beat what the victims were still worth plus the eviction
            # copies (with the same hysteresis margin as promotions).
            if in_weight <= victim_value + cfg.plan.cost_margin * evict_time:
                refuse(
                    obj, "swap_economics",
                    in_weight=in_weight, victim_value=victim_value,
                    evict_time=evict_time,
                )
                continue
            # Stall guard: the weight already charges the cost-margined
            # copy; only an *additional* exposed stall beyond that refusal
            # threshold vetoes the move.
            stall_est = max(0.0, backlog + evict_time + ct - first_use)
            if stall_est > in_weight + cfg.plan.cost_margin * ct:
                refuse(
                    obj, "stall_guard",
                    stall_est=stall_est, in_weight=in_weight, copy_time=ct,
                )
                continue  # the copy would cost more than it saves
            for v in planned_victims:
                rec_v = ctx.request_migration(
                    v, ctx.nvm, now,
                    inputs={
                        "reason": "eviction",
                        "victim_weight": plan.weights.get(v.uid, 0.0),
                        "for_uid": obj.uid,
                    },
                )
                self._note_outcome(rec_v)
                self._move_counts[v.uid] = self._move_counts.get(v.uid, 0) + 1
                self.stats["migrations_requested"] += 1
                overhead += cfg.per_migration_request_overhead_s
            victims = [v for v in victims if v not in planned_victims]
            if not ctx.hms.dram_fits(obj.size_bytes):
                refuse(obj, "fragmentation")
                continue  # fragmentation (or a failed eviction copy kept a
                # victim resident): give up on this object
            rec = ctx.request_migration(
                obj, ctx.dram, now,
                inputs={
                    "reason": "promotion",
                    "benefit_weight": in_weight,
                    "copy_time": ct,
                    "first_use_offset": first_use,
                    "backlog": backlog,
                    "evict_time": evict_time,
                    "victim_value": victim_value,
                    "stall_est": stall_est,
                },
            )
            self._note_outcome(rec)
            log.debug("promote uid=%d (%d B) victims=%d", obj.uid, obj.size_bytes,
                      len(planned_victims))
            self._move_counts[obj.uid] = self._move_counts.get(obj.uid, 0) + 1
            self.stats["migrations_requested"] += 1
            overhead += cfg.per_migration_request_overhead_s
            backlog += evict_time + ct
        return overhead

    def _note_outcome(self, rec) -> None:
        """Resilience bookkeeping for one migration request.

        A permanently failed copy rolled the placement back (the object
        stays serviceable from its source tier — graceful degradation);
        the move-count increment in the caller still stands, so an object
        whose migrations keep failing is eventually pinned by the
        ping-pong breaker instead of being retried forever.
        """
        if rec is None or rec.attempts <= 1:
            return
        if rec.failed:
            self.stats["migrations_failed"] = self.stats.get("migrations_failed", 0) + 1
        else:
            self.stats["migrations_recovered"] = (
                self.stats.get("migrations_recovered", 0) + 1
            )

    # ------------------------------------------------------------------
    def _platform_calibration(self, ctx: ExecContext) -> CalibrationResult:
        key = (
            ctx.dram.name,
            ctx.nvm.name,
            ctx.config.sampling_interval_cycles,
            ctx.config.n_workers,
        )
        result = _CALIBRATION_CACHE.get(key)
        if result is None:
            result = calibrate(ctx.dram, ctx.nvm, ctx.config)
            _CALIBRATION_CACHE[key] = result
        return result
