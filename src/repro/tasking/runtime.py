"""User-facing task runtime: the ``unimem_*`` API analogue for tasks.

:class:`TaskRuntime` is what an application (or a workload generator)
programs against:

- ``data(...)`` registers a managed allocation (``unimem_malloc``);
- ``spawn(...)`` creates a task with declared accesses; dependences are
  inferred from the access modes, OpenMP-``depend`` style;
- ``run(...)`` executes the accumulated graph on a fresh simulated
  machine under a given placement policy and returns the trace.

The runtime also applies the large-object partitioning transformation when
the policy asks for it (``partition_max_bytes``), mirroring the paper's
chunking optimization happening before the main loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.memory.device import MemoryDevice
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram as dram_preset, nvm_bandwidth_scaled
from repro.tasking.access import ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig, PlacementPolicy
from repro.tasking.graph import TaskGraph
from repro.tasking.scheduler import SchedulingPolicy
from repro.tasking.task import Task
from repro.tasking.trace import ExecutionTrace

__all__ = ["TaskRuntime"]


@dataclass
class TaskRuntime:
    """Builds a task graph and runs it on the simulated HMS."""

    dram: MemoryDevice = field(default_factory=dram_preset)
    nvm: MemoryDevice = field(default_factory=lambda: nvm_bandwidth_scaled(0.5))
    config: ExecutorConfig = field(default_factory=ExecutorConfig)
    scheduler: SchedulingPolicy | None = None

    def __post_init__(self) -> None:
        self.graph = TaskGraph()
        self._objects: list[DataObject] = []

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------
    def data(
        self,
        name: str,
        size_bytes: int,
        static_ref_count: float = 0.0,
        partitionable: bool = False,
    ) -> DataObject:
        """Register a managed data object (``unimem_malloc`` analogue)."""
        obj = DataObject(
            name=name,
            size_bytes=size_bytes,
            static_ref_count=static_ref_count,
            partitionable=partitionable,
        )
        self._objects.append(obj)
        return obj

    def spawn(
        self,
        name: str,
        accesses: dict[DataObject, ObjectAccess],
        compute_time: float = 0.0,
        type_name: str | None = None,
        iteration: int = -1,
    ) -> Task:
        """Create a task; dependences are inferred from ``accesses``."""
        task = Task(
            name=name,
            type_name=type_name if type_name is not None else name,
            accesses=dict(accesses),
            compute_time=compute_time,
            iteration=iteration,
        )
        self.graph.add(task)
        return task

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_machine(self) -> HeterogeneousMemorySystem:
        """A fresh HMS with this runtime's devices."""
        return HeterogeneousMemorySystem(self.dram, self.nvm)

    def run(
        self, policy: PlacementPolicy, graph: TaskGraph | None = None
    ) -> ExecutionTrace:
        """Execute the (accumulated or given) graph under ``policy``."""
        graph = graph if graph is not None else self.graph
        max_chunk = getattr(policy, "partition_max_bytes", None)
        if max_chunk:
            from repro.core.partition import partition_graph

            graph = partition_graph(graph, max_chunk)
        hms = self.build_machine()
        cfg = self.config
        if self.scheduler is not None:
            cfg = replace(cfg, scheduler=self.scheduler)
        executor = Executor(hms, cfg)
        trace = executor.run(graph, policy)
        trace.meta.setdefault("policy", policy.name)
        trace.meta.setdefault("nvm", self.nvm.name)
        return trace

    def dram_only_machine(self) -> "TaskRuntime":
        """A copy of this runtime whose DRAM holds the entire working set
        (for DRAM-only reference runs)."""
        total = max(self.graph.total_object_bytes() * 2, self.dram.capacity_bytes)
        rt = TaskRuntime(
            dram=self.dram.scaled(capacity_bytes=total),
            nvm=self.nvm,
            config=self.config,
            scheduler=self.scheduler,
        )
        rt.graph = self.graph
        rt._objects = self._objects
        return rt
