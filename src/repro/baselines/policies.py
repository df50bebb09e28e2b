"""Static and trivial placement policies."""

from __future__ import annotations

from repro.memory.allocator import OutOfMemoryError
from repro.tasking.executor import ExecContext
from repro.tasking.task import Task
from repro.tasking.trace import TaskRecord
from repro.util.rng import spawn_rng

__all__ = [
    "BasePolicy",
    "NVMOnlyPolicy",
    "DRAMOnlyPolicy",
    "StaticPlacementPolicy",
    "RandomPolicy",
    "SizeGreedyPolicy",
]


class BasePolicy:
    """No-op policy; placement stays wherever objects were allocated (NVM)."""

    name = "base"

    def on_run_start(self, ctx: ExecContext) -> None:  # noqa: ARG002
        return None

    def before_task(self, task: Task, ctx: ExecContext, now: float) -> float:  # noqa: ARG002
        return 0.0

    def after_task(self, task: Task, record: TaskRecord, ctx: ExecContext) -> float:  # noqa: ARG002
        return 0.0


class NVMOnlyPolicy(BasePolicy):
    """Everything lives on NVM for the whole run (the lower bound system)."""

    name = "nvm-only"


class DRAMOnlyPolicy(BasePolicy):
    """Everything lives in DRAM (upper bound; requires DRAM to fit the
    working set — use ``TaskRuntime.dram_only_machine()``)."""

    name = "dram-only"

    def on_run_start(self, ctx: ExecContext) -> None:
        for obj in ctx.graph.objects:
            ctx.place_initial(obj, ctx.dram)


class StaticPlacementPolicy(BasePolicy):
    """Pin a fixed set of objects in DRAM at program start; never migrate.

    This is the building block for the Fig.-4-style per-object placement
    study ("place only ``lhs`` in DRAM") and for external static plans.
    """

    name = "static"

    def __init__(
        self,
        dram_uids: set[int] | None = None,
        name: str | None = None,
        dram_names: tuple[str, ...] = (),
    ):
        self.dram_uids = set(dram_uids or ())
        #: Object *names* to pin — unlike uids (a process-global counter),
        #: names are stable across rebuilds, so plans described by name
        #: survive pickling into worker processes and the result cache.
        self.dram_names = frozenset(dram_names)
        if name:
            self.name = name

    def on_run_start(self, ctx: ExecContext) -> None:
        for obj in ctx.graph.objects:
            if obj.uid in self.dram_uids or obj.name in self.dram_names:
                ctx.place_initial(obj, ctx.dram)


class RandomPolicy(BasePolicy):
    """Fill DRAM with randomly chosen objects (sanity baseline)."""

    name = "random"

    def on_run_start(self, ctx: ExecContext) -> None:
        rng = spawn_rng(0, "random-policy")
        objs = list(ctx.graph.objects)
        rng.shuffle(objs)
        for obj in objs:
            try:
                if ctx.hms.dram_fits(obj.size_bytes):
                    ctx.place_initial(obj, ctx.dram)
            except OutOfMemoryError:  # pragma: no cover - fits() guards
                break


class SizeGreedyPolicy(BasePolicy):
    """Pack the smallest objects into DRAM first (maximizes object count,
    ignores access behaviour entirely)."""

    name = "size-greedy"

    def on_run_start(self, ctx: ExecContext) -> None:
        for obj in sorted(ctx.graph.objects, key=lambda o: (o.size_bytes, o.uid)):
            if ctx.hms.dram_fits(obj.size_bytes):
                ctx.place_initial(obj, ctx.dram)
