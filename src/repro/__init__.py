"""repro — Runtime data management on NVM-based heterogeneous memory for
task-parallel programs (SC 2018 reproduction).

Quickstart::

    from repro import TaskRuntime, DataManagerPolicy, read_footprint
    from repro.memory import nvm_bandwidth_scaled

    rt = TaskRuntime(nvm=nvm_bandwidth_scaled(0.5))
    a = rt.data("a", 64 << 20)
    rt.spawn("sweep", {a: read_footprint(64 << 20)}, compute_time=1e-3)
    trace = rt.run(DataManagerPolicy())
    print(trace.summary())

Packages:

- :mod:`repro.memory` — DRAM+NVM machine simulator
- :mod:`repro.tasking` — task graph, scheduler, virtual-time executor
- :mod:`repro.profiling` — emulated sampling counters + offline calibration
- :mod:`repro.core` — the data manager (the paper's contribution)
- :mod:`repro.baselines` — DRAM/NVM-only, X-Mem, Memory-Mode, static policies
- :mod:`repro.workloads` — task-parallel benchmark generators
- :mod:`repro.faults` — fault injection + degraded-mode resilience
- :mod:`repro.experiments` — per-figure/table regeneration harness
"""

from repro.tasking.runtime import TaskRuntime
from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.task import Task
from repro.tasking.graph import TaskGraph
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.footprints import (
    read_footprint,
    write_footprint,
    update_footprint,
    chase_footprint,
)
from repro.core.manager import DataManagerPolicy, ManagerConfig
from repro.memory.hms import HeterogeneousMemorySystem

__version__ = "1.0.0"

#: Experiment-harness surface re-exported lazily (PEP 562) so that
#: ``import repro`` stays light and free of import cycles.
_EXPERIMENT_EXPORTS = (
    "RunSpec",
    "RunResult",
    "run_many",
    "make_policy",
)

#: Fault-injection surface, likewise lazy (see :mod:`repro.faults`).
_FAULT_EXPORTS = (
    "FaultPlan",
    "FaultInjector",
    "resolve_plan",
    "stress_plan",
)


def __getattr__(name: str):
    if name in _EXPERIMENT_EXPORTS:
        from repro import experiments

        return getattr(experiments, name)
    if name in _FAULT_EXPORTS:
        from repro import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_EXPERIMENT_EXPORTS,
    *_FAULT_EXPORTS,
    "TaskRuntime",
    "AccessMode",
    "ObjectAccess",
    "DataObject",
    "Task",
    "TaskGraph",
    "Executor",
    "ExecutorConfig",
    "read_footprint",
    "write_footprint",
    "update_footprint",
    "chase_footprint",
    "DataManagerPolicy",
    "ManagerConfig",
    "HeterogeneousMemorySystem",
    "__version__",
]
