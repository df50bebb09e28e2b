"""Shared machinery for the experiment suite.

The run description is a :class:`~repro.experiments.spec.RunSpec`; the
central helper is :func:`execute_spec`: build the workload, build the
machine (DRAM capacity + NVM config), build the policy from the unified
registry, execute, and return the trace.  DRAM-only reference runs
automatically get a DRAM tier large enough for the full working set, as
the paper's DRAM-only baseline does.

For sweeps, prefer :func:`repro.experiments.parallel.run_many`, which
adds process fan-out and the on-disk result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable

from repro.baselines import (
    DRAMOnlyPolicy,
    OracleStaticPolicy,
    HWCacheMode,
    NVMOnlyPolicy,
    StaticPlacementPolicy,
    XMemPolicy,
)
from repro.core.manager import DataManagerPolicy, ManagerConfig
from repro.core.placement import PlanConfig
from repro.experiments.spec import RunSpec, RunResult
from repro.memory.device import MemoryDevice
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram as dram_preset
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.scheduler import SCHEDULERS, make_scheduler
from repro.tasking.trace import ExecutionTrace
from repro.util.tables import Table
from repro.util.validation import did_you_mean
from repro.workloads.memo import build_cached

__all__ = [
    "ExperimentResult",
    "POLICIES",
    "SCHEDULERS",
    "make_policy",
    "make_scheduler",
    "workload_params",
    "dispatch_spec",
    "DispatchOutcome",
    "ClosedRunOutcome",
    "StreamRunOutcome",
    "execute_spec",
    "run_and_summarize",
    "STANDARD_WORKLOADS",
]

#: The seven-workload roster used by the headline experiments (six
#: kernels plus the production-code stand-in, mirroring the paper line's
#: six NPB benchmarks + Nek5000 roster).
STANDARD_WORKLOADS: tuple[str, ...] = (
    "cg",
    "heat",
    "cholesky",
    "lu",
    "sparselu",
    "health",
    "nbody",
)

#: Reduced problem sizes for fast (CI) runs — same DAG shapes, fewer
#: tiles/iterations.  ``full`` uses the builder defaults.
_FAST_PARAMS: dict[str, dict[str, Any]] = {
    "cg": {"iterations": 4, "n_chunks": 6},
    "heat": {"grid": 6, "iterations": 8},
    "cholesky": {"n_tiles": 8},
    "lu": {"n_tiles": 8},
    "sparselu": {"n_blocks": 10},
    "health": {"steps": 8},
    "nbody": {"n_tiles": 8, "steps": 3},
    "mg": {"iterations": 4},
    "fft": {"n_slices": 16, "iterations": 1},
    "strassen": {"depth": 1},
    "randomdag": {"layers": 8, "width": 12},
    "kmeans": {"n_chunks": 6, "iterations": 5},
    "stream": {},
    "pchase": {},
}


def workload_params(name: str, fast: bool) -> dict[str, Any]:
    """Parameter overrides for the given speed preset."""
    return dict(_FAST_PARAMS.get(name, {})) if fast else {}


# ----------------------------------------------------------------------
# The unified policy registry
# ----------------------------------------------------------------------
def _tahoe(**defaults: Any) -> Callable[..., DataManagerPolicy]:
    """Factory for a data-manager variant with preset config overrides.

    The returned factory accepts further call-time overrides (merged over
    the presets), keeping every variant reachable through
    ``make_policy(name, **overrides)``.
    """

    def factory(**overrides: Any) -> DataManagerPolicy:
        opts = {**defaults, **overrides}
        name = opts.pop("name", None)
        plan_kw = {
            k: opts.pop(k)
            for k in list(opts)
            if k in PlanConfig.__dataclass_fields__
        }
        cfg = ManagerConfig(plan=PlanConfig(**plan_kw), **opts)
        return DataManagerPolicy(cfg, name=name)

    return factory


def _static(**overrides: Any) -> StaticPlacementPolicy:
    opts = dict(overrides)
    uids = opts.pop("dram_uids", ())
    return StaticPlacementPolicy(set(uids), **opts)  # dram_names passes through


#: Named policy factories usable in every experiment.  Every factory
#: accepts keyword overrides (most baselines take none; the data-manager
#: entries route them into :class:`ManagerConfig`/:class:`PlanConfig`).
POLICIES: dict[str, Callable[..., Any]] = {
    "dram-only": DRAMOnlyPolicy,
    "nvm-only": NVMOnlyPolicy,
    "xmem": XMemPolicy,
    "hw-cache": HWCacheMode,
    "oracle-static": OracleStaticPolicy,
    "static": _static,
    "tahoe": _tahoe(),
    "tahoe-nodrw": _tahoe(distinguish_rw=False, name="tahoe-nodrw"),
    "tahoe-rawcounters": _tahoe(use_miss_counter=False, name="tahoe-rawcounters"),
    "tahoe-greedy": _tahoe(solver="greedy", name="tahoe-greedy"),
    "tahoe-noadapt": _tahoe(enable_adaptation=False, name="tahoe-noadapt"),
}

def _unknown(kind: str, name: str, known: dict[str, Any]) -> KeyError:
    return KeyError(f"unknown {kind} {name!r}{did_you_mean(name, known)} (known: {sorted(known)})")


def make_policy(name: str, /, **overrides: Any) -> Any:
    """Construct any registered policy, with optional config overrides.

    The registry name is positional-only so overrides may themselves carry
    a ``name`` key (display name for throwaway variants).  Unknown names
    raise ``KeyError`` with a did-you-mean suggestion.
    """
    try:
        factory = POLICIES[name]
    except KeyError:
        raise _unknown("policy", name, POLICIES) from None
    return factory(**overrides)


# ----------------------------------------------------------------------
# Spec execution
# ----------------------------------------------------------------------
def _build_machine(spec: RunSpec, total_bytes: int) -> tuple[MemoryDevice, ExecutorConfig]:
    """The DRAM device and executor config a spec describes."""
    if spec.policy == "dram-only":
        dram_dev = dram_preset(max(total_bytes * 2, spec.dram_capacity))
    else:
        dram_dev = dram_preset(spec.dram_capacity)

    cfg = ExecutorConfig(n_workers=spec.n_workers, scheduler=spec.scheduler)
    exec_kw = spec.exec_kwargs
    if spec.seed is not None:
        exec_kw["seed"] = int(spec.seed)
    if exec_kw:
        cfg = replace(cfg, **exec_kw)
    if spec.policy == "hw-cache":
        cfg = HWCacheMode.configure(cfg, spec.dram_capacity)
    return dram_dev, cfg


# ----------------------------------------------------------------------
# Dispatch: the single routing entry point over both execution engines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClosedRunOutcome:
    """Outcome of dispatching a closed-DAG spec: the executed trace, the
    DRAM device the machine was built with, and (lazily) the cacheable
    :class:`RunResult` digest."""

    spec: RunSpec
    trace: "ExecutionTrace"
    dram: MemoryDevice

    kind = "closed"

    @cached_property
    def result(self) -> RunResult:
        """The run digest, computed once on first access (trace-only
        consumers never pay for energy accounting)."""
        return RunResult.from_trace(self.spec, self.trace, self.dram, self.spec.nvm)


@dataclass(frozen=True)
class StreamRunOutcome:
    """Outcome of dispatching a stream-mode spec: the open-system service
    digest (there is no single trace — see ``docs/service.md``)."""

    spec: RunSpec
    result: RunResult

    kind = "stream"


DispatchOutcome = ClosedRunOutcome | StreamRunOutcome


def dispatch_spec(spec: RunSpec, telemetry: Any = None) -> DispatchOutcome:
    """Route any :class:`RunSpec` to the engine that executes it.

    This is the one documented entry point over both execution modes: a
    closed-DAG spec runs one graph through the executor and returns a
    :class:`ClosedRunOutcome` (trace + lazy result digest); a spec
    carrying a ``stream`` config runs the open-system service and returns
    a :class:`StreamRunOutcome` (result digest only).  Match on
    ``outcome.kind`` (``"closed"`` / ``"stream"``) or on the class.
    ``telemetry`` may be a live :class:`~repro.metrics.Telemetry` for
    closed-DAG runs; stream mode manages its own instrumentation and
    rejects an external handle.
    """
    if spec.stream is not None:
        if telemetry is not None:
            raise ValueError(
                "stream-mode runs manage their own telemetry; cannot attach "
                "an external Telemetry handle"
            )
        from repro.experiments.service import run_service

        return StreamRunOutcome(spec=spec, result=run_service(spec))
    trace, dram_dev = _execute(spec, telemetry)
    return ClosedRunOutcome(spec=spec, trace=trace, dram=dram_dev)


def execute_spec(spec: RunSpec, telemetry: Any = None) -> ExecutionTrace:
    """Build + execute the run a :class:`RunSpec` describes (no cache).

    Trace-shaped guard over :func:`dispatch_spec`: stream-mode specs have
    no single trace, so they are refused here with a pointer at the
    routing entry points.  ``telemetry`` may be a live
    :class:`~repro.metrics.Telemetry` to instrument the run with (the
    caller keeps the handle for exporting); when ``None``, one is created
    automatically iff the spec carries a telemetry config, and its export
    rides on ``trace.telemetry``.
    """
    if spec.stream is not None:
        raise ValueError(
            "stream-mode specs describe an open system, not one trace; "
            "run them through dispatch_spec() / run_and_summarize() / "
            "repro.experiments.service.run_service() instead of execute_spec()"
        )
    return dispatch_spec(spec, telemetry).trace


def _execute(spec: RunSpec, telemetry: Any = None) -> tuple[ExecutionTrace, MemoryDevice]:
    params = workload_params(spec.workload, spec.fast)
    params.update(spec.workload_kwargs)
    policy = make_policy(spec.policy, **spec.policy_kwargs)
    max_chunk = getattr(policy, "partition_max_bytes", None)
    # Interned: memo-equivalent specs share one built (and, when the
    # policy partitions, pre-partitioned) graph structure.
    workload = build_cached(
        spec.workload, partition_max_bytes=max_chunk or None, **params
    )
    graph = workload.graph

    dram_dev, cfg = _build_machine(spec, workload.total_bytes)
    hms = HeterogeneousMemorySystem(dram_dev, spec.nvm)
    injector = None
    if spec.faults is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector.for_hms(spec.faults, hms)
    if telemetry is None and spec.telemetry is not None:
        from repro.metrics.telemetry import Telemetry

        telemetry = Telemetry(spec.telemetry)
    trace = Executor(hms, cfg, injector=injector, telemetry=telemetry).run(
        graph, policy
    )
    trace.meta.update(
        workload=spec.workload,
        policy=policy.name,
        nvm=spec.nvm.name,
        dram_capacity=spec.dram_capacity,
        n_workers=spec.n_workers,
        scheduler=spec.scheduler,
    )
    if hasattr(policy, "stats"):
        trace.meta["manager_stats"] = dict(policy.stats)
    return trace, dram_dev


def run_and_summarize(spec: RunSpec) -> RunResult:
    """Execute a spec and digest it into a cacheable result.

    Thin wrapper over :func:`dispatch_spec`: closed-DAG specs run one
    graph through the executor, specs carrying a ``stream`` config run
    the open-system service instead (the per-job closed-DAG sub-runs
    still flow through here, with ``stream=None``), and either way the
    caller gets the :class:`RunResult` digest.
    """
    return dispatch_spec(spec).result


@dataclass
class ExperimentResult:
    """What every experiment's ``run`` returns."""

    experiment: str
    title: str
    tables: list[Table] = field(default_factory=list)
    #: flat key metrics for regression tests and EXPERIMENTS.md
    metrics: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        parts = [f"=== {self.experiment}: {self.title} ==="]
        for t in self.tables:
            parts.append(t.render())
            parts.append("")
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)
