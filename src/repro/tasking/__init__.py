"""Task-parallel runtime substrate.

Implements the programming-model side of the reproduction: data objects,
tasks with declared per-object access footprints, dependence inference
(RAW/WAW/WAR) into a task graph, ready-queue scheduling policies, and an
event-driven multi-worker executor that runs a graph on the heterogeneous
memory simulator in virtual time.  Placement policies (the paper's
contribution and all baselines) plug into the executor through the
:class:`~repro.tasking.executor.PlacementPolicy` interface.
"""

from repro.tasking.access import AccessMode, ObjectAccess, AccessPattern
from repro.tasking.dataobj import DataObject
from repro.tasking.task import Task
from repro.tasking.graph import TaskGraph
from repro.tasking.scheduler import (
    FIFOPolicy,
    CriticalPathPolicy,
    MemoryAwarePolicy,
)
from repro.tasking.executor import Executor, ExecutorConfig, PlacementPolicy, ExecContext
from repro.tasking.stream import (
    AdmissionController,
    JobRecord,
    JobRequest,
    RoundRecord,
    StreamDriver,
    StreamResult,
)
from repro.tasking.trace import ExecutionTrace
from repro.tasking.runtime import TaskRuntime

__all__ = [
    "AccessMode",
    "ObjectAccess",
    "AccessPattern",
    "DataObject",
    "Task",
    "TaskGraph",
    "FIFOPolicy",
    "CriticalPathPolicy",
    "MemoryAwarePolicy",
    "Executor",
    "ExecutorConfig",
    "PlacementPolicy",
    "ExecContext",
    "ExecutionTrace",
    "TaskRuntime",
    "AdmissionController",
    "JobRequest",
    "JobRecord",
    "RoundRecord",
    "StreamDriver",
    "StreamResult",
]
