"""Experiment harness: one module per table/figure of the evaluation.

The run description is :class:`RunSpec`; :func:`run_many` executes
batches of specs in parallel with an on-disk result cache; every
experiment module exposes ``TITLE``, ``run(fast=True) -> ExperimentResult``
and registers itself in :data:`repro.experiments.registry.EXPERIMENTS`.
``repro-experiments <id> [--jobs N] [--no-cache]`` (or
``python -m repro.experiments.cli``) runs and prints any of them.
EXPERIMENTS.md records expected-vs-measured.
"""

from repro.experiments.spec import RunSpec, RunResult
from repro.experiments.cache import (
    ResultCache,
    get_cache,
    set_cache_enabled,
    cache_enabled,
)
from repro.experiments.parallel import (
    run_many,
    get_default_workers,
    set_default_workers,
)
from repro.experiments.runner import (
    ExperimentResult,
    execute_spec,
    make_policy,
    make_scheduler,
    POLICIES,
    SCHEDULERS,
    workload_params,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = [
    "RunSpec",
    "RunResult",
    "ResultCache",
    "get_cache",
    "set_cache_enabled",
    "cache_enabled",
    "run_many",
    "get_default_workers",
    "set_default_workers",
    "ExperimentResult",
    "execute_spec",
    "make_policy",
    "make_scheduler",
    "POLICIES",
    "SCHEDULERS",
    "workload_params",
    "EXPERIMENTS",
    "get_experiment",
]
