"""Task-parallel workload generators.

Each generator builds the real task DAG of its algorithm (tile-level
dependences included) with per-task, per-object load/store footprints
derived from the algorithm's operation counts, plus the static reference
counts the initial-placement optimization consumes.  Absolute problem
sizes are scaled to simulate quickly; DAG shape and per-object access
*ratios* — what placement quality depends on — follow the algorithms
exactly.

Registry: ``build(name, **params)`` constructs any registered workload;
``WORKLOADS`` lists them.
"""

from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    Schedule,
    TenantSpec,
    generate_arrivals,
)
from repro.workloads.base import Workload, WORKLOADS, build, workload

# Import for registration side effects.
from repro.workloads import (  # noqa: F401  (registration imports)
    cholesky,
    graphs,
    fft,
    health,
    heat,
    lu,
    nbody,
    npb,
    pchase,
    randomdag,
    sparselu,
    strassen,
    stream,
)

__all__ = [
    "Workload",
    "WORKLOADS",
    "build",
    "workload",
    "ARRIVAL_KINDS",
    "Schedule",
    "TenantSpec",
    "generate_arrivals",
]
