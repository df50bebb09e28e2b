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

import numpy as np

from repro.baselines.policies import BasePolicy
from repro.core.adaptation import DeviationDetector
from repro.core.demand import DemandBatch, DemandProjection, first_use_offsets_split, scan_frontier
from repro.core.models import TypeModel
from repro.core.placement import COST_MARGIN, PlacementPlan, PlanConfig, make_plan
from repro.memory.hms import Placeable
from repro.profiling.calibration import CalibrationResult, calibrate
from repro.tasking.executor import ExecContext
from repro.tasking.task import Task
from repro.util.log import get_logger
from repro.util.units import US

__all__ = ["ManagerConfig", "DataManagerPolicy"]

log = get_logger(__name__)

#: Software cost constants (charged as worker overhead).
PER_TASK_SYNC_OVERHEAD_S = 0.5 * US
PER_DEMAND_PLAN_OVERHEAD_S = 2.0 * US
PER_PLAN_FIXED_OVERHEAD_S = 20.0 * US
PER_MIGRATION_REQUEST_OVERHEAD_S = 1.0 * US
#: Slow EWMA rate for post-profiling duration tracking.
DURATION_ALPHA = 0.05
#: Ping-pong breaker: after this many crossings an object is pinned.
MAX_MOVES_PER_OBJECT = 4
#: Decision-overhead budget: fraction of machine time the planner may
#: consume; beyond it the replan interval backs off exponentially
#: (tiny-task programs with many objects would otherwise spend more time
#: planning than working).
DECISION_OVERHEAD_BUDGET = 0.02


@dataclass(frozen=True)
class ManagerConfig:
    """The data manager's ablation surface (the fixed cost and tuning
    constants are module constants)."""

    profile_instances: int = 2
    lookahead_tasks: int = 48
    decide_every: int = 24
    plan: PlanConfig = field(default_factory=PlanConfig)
    enable_local_search: bool = True
    enable_initial_placement: bool = True
    enable_adaptation: bool = True
    #: When set, the runtime partitions partitionable objects larger than
    #: this before execution (chunking optimization).
    partition_max_bytes: int | None = None
    #: Volume guard: stop issuing copies once the helper thread's lane is
    #: backed up this far.  Individually-justified migrations can still
    #: serialize into a pile-up on devices with storage-class copy
    #: bandwidth (ReRAM writes); this bounds the pile.
    max_lane_backlog_s: float = 0.25


def _resident_worth(
    weights: np.ndarray, objects: np.ndarray, resident_idx: np.ndarray, n_objects: int
) -> float:
    """The worth of the current DRAM residents under one plan: the sum of
    their positive weights.

    ``weights`` are the plan's lanes, ``objects`` their dense object
    indices, and ``resident_idx`` the residents' dense indices in
    residency-snapshot order; a resident without a lane is worth 0.
    The positive weights are added left to right in that order.
    Skipping non-positive weights is exact: adding ``max(w, 0.0)`` for
    ``w <= 0`` adds a zero, which never changes the non-negative
    accumulator.
    """
    dense = np.zeros(n_objects)
    dense[objects] = weights
    current = 0.0
    for w in dense[resident_idx].tolist():
        if w > 0.0:
            current += w
    return current


# Calibration results are per-platform, reused across runs and policies,
# exactly as the paper's offline step prescribes.
_CALIBRATION_CACHE: dict[tuple[str, str, int, int], CalibrationResult] = {}


class DataManagerPolicy(BasePolicy):
    """Runtime data placement manager for task-parallel programs."""

    name = "tahoe"

    def __init__(
        self,
        config: ManagerConfig | None = None,
        name: str | None = None,
    ):
        self.config = config or ManagerConfig()
        if name:
            self.name = name
        # Per-run state, created in on_run_start.
        self.calib: CalibrationResult | None = None
        self._models: dict[str, TypeModel] = {}
        self._stale_models: dict[str, TypeModel] = {}
        self._detector = DeviationDetector()
        self._tasks_since_decision = 0
        self._replan_needed = False
        self._move_counts: dict[int, int] = {}
        self._skepticism = 1.0
        self._watch: dict[str, tuple[float, int]] | None = None
        self._replan_interval = self.config.decide_every
        self._decision_overhead = 0.0
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
        self._tasks_since_decision = 0
        self._replan_needed = False
        self._move_counts: dict[int, int] = {}
        self._skepticism = 1.0
        self._watch = None
        self._replan_interval = self.config.decide_every
        self._decision_overhead = 0.0
        self._projection = DemandProjection()
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
        self.calib = self._platform_calibration(ctx)
        if self.config.enable_initial_placement:
            # The per-run fits test keeps the sequential capacity
            # semantics over the graph's (shared) initial DRAM set.
            core = ctx.graph.exec_core()
            for obj in core.initial_dram_objects(ctx.dram.capacity_bytes):
                if ctx.hms.dram_fits(obj.size_bytes):
                    ctx.place_initial(obj, ctx.dram)

    def before_task(self, task: Task, ctx: ExecContext, now: float) -> float:
        overhead = PER_TASK_SYNC_OVERHEAD_S
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

    def after_task(self, task: Task, duration: float, ctx: ExecContext) -> float:
        cfg = self.config
        tname = task.type_name
        model = self._models.get(tname)
        if model is None:
            model = TypeModel(tname)
            self._models[tname] = model
        if model.n_profiles >= cfg.profile_instances:
            # Steady state (the per-task hot path): fold the duration into
            # the model's fast EWMA (rate 0.3; the first instance seeds
            # it).  Inline because this runs once per task.
            model.n_instances += 1
            rd = model.recent_duration
            if rd <= 0.0:
                model.recent_duration = duration
            else:
                model.recent_duration = rd + (duration - rd) * 0.3
            overhead = 0.0
        else:
            profile = ctx.profile(task, duration)
            model.observe(profile)
            overhead = ctx.profiling_overhead(duration)
            self.stats["profiled_tasks"] += 1
            if model.n_profiles < cfg.profile_instances:
                return overhead
            # The instance that completes profiling also enters drift
            # tracking immediately.
            self._stale_models.pop(tname, None)
            self._replan_needed = True
        if cfg.enable_adaptation:
            # Drift check against a slow baseline: a fast step change
            # beyond the threshold archives the model and re-profiles
            # the type.
            if self._detector.observe(tname, duration, task.iteration):
                self._stale_models[tname] = model
                self._models[tname] = TypeModel(tname)
                self._replan_needed = True
                self.stats["adaptation_triggers"] += 1
                log.debug("adaptation trigger: type=%s re-profiling", tname)
            else:
                model.mean_duration += (
                    duration - model.mean_duration
                ) * DURATION_ALPHA
        return overhead

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

    @staticmethod
    def _parallel_slack(widths: list[int], n_workers: int) -> float:
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

        The returned scale is the task-weighted mean of per-level shares;
        ``widths`` holds the horizon's task count per level, levels in
        first-occurrence order (see :class:`~repro.core.demand.Frontier`),
        and the shares are summed in that order.
        """
        n = sum(widths)
        if n == 0:
            return 1.0
        workers = max(1, n_workers)
        num = 0.0
        for width in widths:
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
        return num / n

    def _replan(self, ctx: ExecContext, now: float) -> float:
        """Re-run both searches, pick the better, enforce it.  Returns the
        software overhead charged for the decision."""
        cfg = self.config
        self._replan_needed = False
        self._tasks_since_decision = 0
        self.stats["replans"] += 1
        self._update_skepticism()

        remaining = ctx.remaining_indices()
        core = ctx.graph.exec_core()
        n_workers = ctx.config.n_workers

        plans: list[tuple[float, PlacementPlan]] = []
        overhead = PER_PLAN_FIXED_OVERHEAD_S

        # Endgame: once the window covers every remaining task the local
        # search would rebuild the identical plan and lose the stable-sort
        # tie to the global scope, so only its bookkeeping overhead is
        # charged and the duplicate solve (and the window fold feeding
        # it) is skipped.
        scopes_coincide = (
            len(remaining) <= cfg.lookahead_tasks and cfg.enable_local_search
        )

        need_window = cfg.enable_local_search and not scopes_coincide

        # One model per type feeds the start offsets (1e-4 s stands in
        # for the duration of a type without a ready model) and the
        # demand projection (which skips that type's tasks).
        models = [self._model_for(name) for name in core.type_names]
        durations = np.array([m.mean_duration if m is not None else 1e-4 for m in models])
        # One pass over the remaining tasks feeds the demand projection,
        # the first-use offsets and the parallel slack of both scopes.
        front = scan_frontier(core, remaining, cfg.lookahead_tasks, durations, n_workers)
        local_proj, global_proj = self._projection.project(core, front, models, need_window)
        local_offsets, global_offsets = first_use_offsets_split(core, front)
        csr = core.accesses
        # One residency scan: the residents feed the worth of doing
        # nothing here and the victims of enforcement.
        residents = ctx.hms.objects_in_dram()
        resident_uids = {o.uid for o in residents}
        index_of = csr.obj_index.get
        resident_idx = np.array(
            [i for i in map(index_of, resident_uids) if i is not None], dtype=np.int64
        )
        resident = np.zeros(len(csr.obj_uid), dtype=np.bool_)
        resident[resident_idx] = True

        # One make_plan call weighs both scopes: each is (name, batch
        # with placement columns, benefit scale), kept beside its dense
        # objects and its horizon per worker.
        scopes: list[tuple[str, DemandBatch, float]] = []
        spans: list[tuple[np.ndarray, float]] = []
        for name, (batch, horizon, objects), offsets, widths, wanted in (
            ("global", global_proj, global_offsets, front.widths[0], True),
            ("local", local_proj, local_offsets, front.widths[1], need_window),
        ):
            if not wanted or len(batch) == 0:
                continue
            if cfg.plan.use_parallel_slack:
                slack = self._parallel_slack(widths, n_workers)
            else:
                slack = 1.0
            # Placement columns (residency + overlap offsets) attach to
            # the scope-shared projection batch without copying it; an
            # object with no traffic in scope has offset 0.
            first_use = np.zeros(len(csr.obj_uid))
            first_use[offsets[0]] = offsets[1]
            batch = batch.with_placement(resident[objects], first_use[objects])
            scopes.append((name, batch, self._skepticism * slack))
            spans.append((objects, max(horizon / max(1, n_workers), 1e-9)))
        if not scopes:
            return overhead
        built = make_plan(
            scopes,
            ctx.dram.capacity_bytes,
            ctx.hms.dram_used_bytes(),
            ctx.nvm,
            ctx.dram,
            self.calib,
            cfg.plan,
        )
        for plan, (objects, horizon) in zip(built, spans):
            # Delta gain: what enforcing the plan buys *over doing
            # nothing* — the plan set's worth minus the worth of the
            # current resident set under the same demand model.
            # Comparing raw set worth would favour whichever scope sees
            # more total traffic, not whichever scope's enforcement helps
            # more.
            current = _resident_worth(plan.weights, objects, resident_idx, len(resident))
            plans.append(((plan.predicted_gain - current) / horizon, plan))
            overhead += len(plan.weights) * PER_DEMAND_PLAN_OVERHEAD_S
            if scopes_coincide:
                overhead += len(plan.weights) * PER_DEMAND_PLAN_OVERHEAD_S

        plans.sort(key=lambda p: -p[0])
        best_rate, best = plans[0]
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
        overhead += self._enforce(best, ctx, now, residents, resident_uids)
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
        if self._decision_overhead > DECISION_OVERHEAD_BUDGET * machine_time:
            self._replan_interval = min(self._replan_interval * 2, 4096)
        elif self._replan_interval > cfg.decide_every:
            self._replan_interval = max(cfg.decide_every, self._replan_interval // 2)
        self.stats["replan_interval"] = self._replan_interval

    def _enforce(
        self,
        plan: PlacementPlan,
        ctx: ExecContext,
        now: float,
        residents: list[Placeable],
        resident_uids: set[int],
    ) -> float:
        """Issue helper-thread migrations to realize ``plan``.

        Enforcement is *lane-aware*: the helper thread copies serially, so
        a promotion whose copy cannot land before the object's first use
        would stall the application on its own migration.  Each candidate
        is admitted only if its estimated exposed stall stays below its
        predicted benefit; the lane backlog is tracked as copies (and the
        evictions that make room for them) are enqueued.

        ``residents`` is the caller's DRAM-residency snapshot
        (``objects_in_dram()``) and ``resident_uids`` their uids (no
        moves happen between a replan's snapshot and its enforcement).
        """
        from repro.memory.migration import copy_time

        cfg = self.config
        by_uid = ctx.graph.exec_core().by_uid
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

        # The non-resident planned objects, by descending weight; the sort
        # is stable, so filtering first keeps the order a filter after it
        # would give, and a plan with nothing to bring in builds no
        # weight lookup.
        incoming = [
            uid for uid in plan.dram_set if uid not in resident_uids and uid in by_uid
        ]
        if not incoming:
            return overhead
        weights_get = plan.weight_of.get
        incoming.sort(key=lambda u: -weights_get(u, 0.0))
        incoming = [by_uid[uid] for uid in incoming]

        backlog = ctx.migration_backlog(now)
        victims = [o for o in residents if o.uid not in plan.dram_set]
        victims.sort(key=lambda o: (plan.weight_of.get(o.uid, 0.0), -o.size_bytes))

        for obj in incoming:
            if backlog > cfg.max_lane_backlog_s:
                refuse(obj, "lane_backlog", backlog=backlog)
                break  # lane pile-up: defer the rest to a later replan
            # Ping-pong breaker: an object that keeps crossing the bus is
            # being mispredicted; pin it where it is.
            if self._move_counts.get(obj.uid, 0) >= MAX_MOVES_PER_OBJECT:
                refuse(obj, "pinned", moves=self._move_counts[obj.uid])
                continue
            ct = copy_time(obj.size_bytes, ctx.nvm, ctx.dram)
            first_use = plan.first_use_of.get(obj.uid, 0.0)
            in_weight = plan.weight_of.get(obj.uid, 0.0)
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
                    ct_v = copy_time(v.size_bytes, ctx.dram, ctx.nvm)
                    evict_time += ct_v
                    # A dirty victim's writers stall until the copy-back
                    # lands; the part of the copy its next use cannot hide
                    # is a real cost of the swap.
                    victim_value += max(
                        0.0, ct_v - plan.first_use_of.get(v.uid, 0.0)
                    )
                victim_value += max(plan.weight_of.get(v.uid, 0.0), 0.0)
                free += v.size_bytes
            if free < obj.size_bytes:
                refuse(obj, "no_room", free=free)
                continue  # cannot make room even after all victims
            # Economics of the whole swap: the newcomer's net weight must
            # beat what the victims were still worth plus the eviction
            # copies (with the same hysteresis margin as promotions).
            if in_weight <= victim_value + COST_MARGIN * evict_time:
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
            if stall_est > in_weight + COST_MARGIN * ct:
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
                        "victim_weight": plan.weight_of.get(v.uid, 0.0),
                        "for_uid": obj.uid,
                    },
                )
                self._note_outcome(rec_v)
                self._move_counts[v.uid] = self._move_counts.get(v.uid, 0) + 1
                self.stats["migrations_requested"] += 1
                overhead += PER_MIGRATION_REQUEST_OVERHEAD_S
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
            overhead += PER_MIGRATION_REQUEST_OVERHEAD_S
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
