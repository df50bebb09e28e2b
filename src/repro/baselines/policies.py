"""The bounding policies and static placement."""

from __future__ import annotations

from repro.tasking.executor import ExecContext
from repro.tasking.task import Task
from repro.tasking.trace import TaskRecord

__all__ = [
    "BasePolicy",
    "NVMOnlyPolicy",
    "DRAMOnlyPolicy",
    "StaticPlacementPolicy",
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
