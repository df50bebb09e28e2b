"""Public API surface: imports, exports, and the README quickstart."""

import ast
import importlib
from pathlib import Path

import pytest

import repro


class TestImportSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.memory",
            "repro.tasking",
            "repro.profiling",
            "repro.core",
            "repro.baselines",
            "repro.workloads",
            "repro.experiments",
            "repro.util",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.memory",
            "repro.tasking",
            "repro.core",
            "repro.baselines",
            "repro.profiling",
            "repro.util",
        ],
    )
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"

    def test_root_exports_are_usable(self):
        assert callable(repro.TaskRuntime)
        assert callable(repro.DataManagerPolicy)
        assert callable(repro.read_footprint)


def _package_uses(skip: Path) -> set[str]:
    """Names the package's own code uses, ``skip`` (a re-exporting
    ``__init__``) aside.

    A name is used when some module imports it, when module-level code
    references it (as a name or an attribute), or when a used top-level
    function or class references it.  References from inside a
    definition count only once that definition is itself used, so an
    export reached only from another unused export stays unused.
    """
    used: set[str] = set()
    refs_of: dict[str, set[str]] = {}

    def refs(node: ast.AST) -> set[str]:
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    for path in Path(repro.__file__).parent.rglob("*.py"):
        if path == skip:
            continue
        tree = ast.parse(path.read_text())
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom):
                used.update(alias.name for alias in n.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs_of.setdefault(node.name, set()).update(refs(node))
            else:
                used |= refs(node)
    frontier = list(used)
    while frontier:
        for name in refs_of.pop(frontier.pop(), ()):
            if name not in used:
                used.add(name)
                frontier.append(name)
    return used


class TestCoreSurface:
    def test_every_core_export_is_used_by_the_package(self):
        """``repro.core`` exports only what the package itself runs: a
        scalar oracle that only tests reach belongs under ``tests/``."""
        core = importlib.import_module("repro.core")
        used = _package_uses(Path(core.__file__))
        assert [name for name in core.__all__ if name not in used] == []


class TestFrozenExecutionAPI:
    """The execution API froze with the SoA executor rewrite (see
    docs/architecture.md).  These snapshots are load-bearing: growing the
    surface needs a deliberate edit here, shrinking or renaming it is a
    compatibility break."""

    def test_executor_module_exports(self):
        from repro.tasking import executor

        assert executor.__all__ == [
            "ExecutorConfig",
            "ExecContext",
            "PlacementPolicy",
            "Executor",
        ]

    def test_executor_config_fields(self):
        import dataclasses

        from repro.tasking.executor import ExecutorConfig

        assert [f.name for f in dataclasses.fields(ExecutorConfig)] == [
            "n_workers",
            "contention",
            "overlap_factor",
            "dram_cache",
            "sampling_interval_cycles",
            "cpu_ghz",
            "seed",
            "migration_overhead_s",
            "scheduler",
        ]
        # the config object is a frozen value type
        cfg = ExecutorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_workers = 8

    def test_executor_constructor_signature(self):
        import inspect

        from repro.tasking.executor import Executor

        params = inspect.signature(Executor.__init__).parameters
        assert list(params) == [
            "self",
            "hms",
            "config",
            "injector",
            "telemetry",
            "legacy",
        ]
        assert params["legacy"].kind is inspect.Parameter.VAR_KEYWORD

    def test_exec_context_surface(self):
        from repro.tasking.executor import ExecContext

        public = {n for n in dir(ExecContext) if not n.startswith("_")}
        assert public == {
            "dram",
            "nvm",
            "place_initial",
            "request_migration",
            "profile",
            "migration_backlog",
            "profiling_overhead",
            "upcoming_view",
            "remaining_view",
            "remaining_indices",
        }


class TestExporterConvention:
    """The metrics exporters share one signature: ``fn(data, *,
    stream=None, path=None) -> str``.  Pinned so the surface can only
    grow deliberately."""

    def test_exporters_share_the_signature(self):
        import inspect

        from repro.metrics.export import to_csv, to_json, to_prometheus

        for fn in (to_csv, to_prometheus):
            params = inspect.signature(fn).parameters
            assert list(params) == ["data", "stream", "path"], fn.__name__
            assert params["stream"].kind is inspect.Parameter.KEYWORD_ONLY
            assert params["path"].kind is inspect.Parameter.KEYWORD_ONLY
        # to_json additionally keeps its indent knob, keyword-only too.
        params = inspect.signature(to_json).parameters
        assert list(params) == ["data", "indent", "stream", "path"]
        for name in ("indent", "stream", "path"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY

    def test_stream_and_path_are_exclusive(self):
        import io

        from repro.metrics.export import to_json
        from repro.metrics.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("x").inc()
        buf = io.StringIO()
        text = to_json(reg, stream=buf)
        assert buf.getvalue() == text
        with pytest.raises(ValueError, match="not both"):
            to_json(reg, stream=buf, path="nope.json")

    def test_prometheus_accepts_registry_and_snapshot(self):
        from repro.metrics.export import to_prometheus
        from repro.metrics.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("x", help="a counter").inc(3)
        live = to_prometheus(reg)
        assert "repro_x 3" in live
        cold = to_prometheus({"metrics": reg.snapshot()})
        assert "repro_x 3" in cold


class TestDispatchAndServerSurface:
    """The routing entry point and the service layer are public API."""

    def test_dispatch_outcome_union(self):
        from repro.experiments.runner import (
            ClosedRunOutcome,
            DispatchOutcome,
            StreamRunOutcome,
            dispatch_spec,
        )

        assert callable(dispatch_spec)
        assert ClosedRunOutcome.kind == "closed"
        assert StreamRunOutcome.kind == "stream"
        import typing

        assert set(typing.get_args(DispatchOutcome)) == {
            ClosedRunOutcome,
            StreamRunOutcome,
        }

    def test_server_package_surface(self):
        import repro.server as server

        assert server.__all__ == [
            "DigitalTwinServer",
            "ServerConfig",
            "serve",
            "AsyncHttpServer",
            "EventStream",
            "HttpError",
            "Request",
            "Response",
            "Job",
            "JobManager",
            "result_payload",
        ]
        for name in server.__all__:
            assert hasattr(server, name)

    def test_server_config_defaults(self):
        from repro.server import ServerConfig

        cfg = ServerConfig()
        assert cfg.host == "127.0.0.1"
        assert cfg.workers == 2

    def test_execute_capturing_is_public(self):
        from repro.experiments.parallel import execute_capturing

        assert callable(execute_capturing)


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        from repro import (
            DataManagerPolicy,
            TaskRuntime,
            read_footprint,
            update_footprint,
        )
        from repro.memory.presets import dram, nvm_bandwidth_scaled
        from repro.util.units import MIB

        rt = TaskRuntime(dram=dram(16 * MIB), nvm=nvm_bandwidth_scaled(0.5))
        hot = rt.data("hot_state", 8 * MIB)
        cold = rt.data("cold_table", 48 * MIB)
        for step in range(16):
            rt.spawn(
                f"update[{step}]",
                {
                    hot: update_footprint(8 * MIB, 8 * MIB, reuse=4.0),
                    cold: read_footprint(3 * MIB),
                },
                compute_time=2e-4,
                type_name="update",
                iteration=step,
            )
        trace = rt.run(DataManagerPolicy())
        summary = trace.summary()
        assert summary["makespan"] > 0
        assert summary["n_tasks"] == 16
        assert "migration_overlap" in summary

    def test_examples_are_importable_programs(self):
        import ast
        from pathlib import Path

        for path in sorted(Path("examples").glob("*.py")):
            tree = ast.parse(path.read_text())
            names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
            assert "main" in names, f"{path} lacks a main()"
