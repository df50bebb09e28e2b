"""The retired shims around the frozen API.

No shim is live today; these tests pin that the expired ones are gone
and fail rather than silently working.
"""

import pytest

from repro.baselines import NVMOnlyPolicy
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.migration import MigrationEngine
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.executor import ExecContext, Executor, ExecutorConfig
from repro.tasking.scheduler import LIFOPolicy, make_scheduler

from tests.helpers import make_fork_join_graph


def _context():
    graph = make_fork_join_graph(width=4, obj_mib=4.0)
    hms = HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))
    cfg = ExecutorConfig(n_workers=2)
    engine = MigrationEngine()
    return graph, ExecContext(graph, hms, engine, cfg)


class TestContextListShimsRemoved:
    """The list forms and the tuple views that replaced them are gone:
    ``remaining_indices`` is the only frontier query."""

    def test_upcoming_list_form_is_gone(self):
        graph, ctx = _context()
        with pytest.raises(AttributeError):
            ctx.upcoming(3)
        assert not hasattr(ctx, "upcoming_view")

    def test_remaining_list_form_is_gone(self):
        graph, ctx = _context()
        with pytest.raises(AttributeError):
            ctx.remaining()
        assert not hasattr(ctx, "remaining_view")
        assert len(ctx.remaining_indices()) == len(graph.tasks)


class TestExecutorConstructor:
    def test_direct_scheduler_arg_rejected_with_hint(self):
        # The PR 6 shim expired: the scheduler lives on the config only.
        hms = HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'scheduler'"):
            Executor(hms, ExecutorConfig(n_workers=1), scheduler=LIFOPolicy())
        ex = Executor(hms, ExecutorConfig(n_workers=1, scheduler=LIFOPolicy()))
        assert isinstance(ex.scheduler, LIFOPolicy)
        tr = ex.run(make_fork_join_graph(width=4, obj_mib=4.0), NVMOnlyPolicy())
        tr.validate()

    def test_machine_knob_kwargs_rejected_with_hint(self):
        hms = HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))
        with pytest.raises(TypeError, match=r"unexpected keyword argument 'n_workers'"):
            Executor(hms, n_workers=4)
        with pytest.raises(TypeError, match=r"unexpected keyword argument"):
            Executor(hms, n_workers=4, seed=1)


class TestExporterPositionalIndent:
    """The PR 9 shim expired: ``to_json``'s indent is keyword-only."""

    def test_positional_indent_rejected(self):
        from repro.metrics.export import to_json
        from repro.metrics.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError, match="positional"):
            to_json(reg, 2)
        with pytest.raises(TypeError, match="positional"):
            to_json(reg, 2, indent=4)
        assert to_json(reg, indent=2).startswith("{\n")


class TestSchedulerRegistry:
    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(KeyError, match="critical-path"):
            make_scheduler("critical_path")

    def test_known_names_construct(self):
        for name in ("fifo", "lifo", "critical-path", "memory-aware"):
            assert len(make_scheduler(name)) == 0
