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


ROOT = Path(repro.__file__).parents[2]


def _refs(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _imported(tree: ast.AST) -> set[str]:
    return {
        alias.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
    }


def _package_uses() -> set[str]:
    """Names the package's own modules use, ``__init__`` re-export files
    aside.

    A name is used when some module imports it, when module-level code
    references it (as a name or an attribute), or when a used top-level
    function or class references it.  References from inside a
    definition count only once that definition is itself used, so an
    export reached only from another unused export stays unused.
    """
    used: set[str] = set()
    refs_of: dict[str, set[str]] = {}
    for path in Path(repro.__file__).parent.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used |= _imported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs_of.setdefault(node.name, set()).update(_refs(node))
            else:
                used |= _refs(node)
    frontier = list(used)
    while frontier:
        for name in refs_of.pop(frontier.pop(), ()):
            if name not in used:
                used.add(name)
                frontier.append(name)
    return used


def _script_uses() -> set[str]:
    """Every name ``examples/`` and ``perfbench/`` import or reference."""
    used: set[str] = set()
    for folder in ("examples", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            used |= _imported(tree) | _refs(tree)
    return used


class TestPackageSurface:
    def test_every_export_has_a_caller_outside_the_tests(self):
        """Each module's ``__all__`` lists only what package code, an
        example or the benchmark reaches: an oracle that only tests call
        belongs under ``tests/``.  A re-exporting ``__init__`` is not a
        caller; a workload builder is reached through ``WORKLOADS``."""
        from repro.workloads import WORKLOADS

        used = _package_uses() | _script_uses()
        used |= {builder.__name__ for builder in WORKLOADS.values()}
        unused = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            rel = path.relative_to(ROOT / "src").with_suffix("")
            parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
            module = importlib.import_module(".".join(parts))
            unused += [
                f"{module.__name__}.{name}"
                for name in getattr(module, "__all__", ())
                if name not in used
            ]
        assert unused == []

    def test_every_member_has_a_caller_outside_the_tests(self):
        """The same rule for class members: every method and property a
        class body under ``src/repro`` defines is used, as an attribute
        or a name, by package code, an example or the benchmark.
        Dunders are the language's to call, and ``validate`` and
        ``check_invariants`` are correctness checks the tests run."""
        package = sorted(Path(repro.__file__).parent.rglob("*.py"))
        trees = {path: ast.parse(path.read_text()) for path in package}
        used = _script_uses()
        for tree in trees.values():
            used |= _refs(tree)
        unused = [
            f"{path.relative_to(ROOT / 'src')}::{cls.name}.{node.name}"
            for path, tree in trees.items()
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in ("validate", "check_invariants")
            and node.name not in used
        ]
        assert unused == []


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
            "dram_cache",
            "sampling_interval_cycles",
            "seed",
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
        ]

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
            "remaining_indices",
        }


class TestExporterConvention:
    """The metrics exporters share one signature: ``fn(data) -> str``.
    Pinned so the surface can only grow deliberately."""

    def test_exporters_share_the_signature(self):
        import inspect

        from repro.metrics.export import export_as, to_csv, to_json, to_prometheus

        for fn in (to_csv, to_prometheus):
            assert list(inspect.signature(fn).parameters) == ["data"], fn.__name__
        # to_json additionally keeps its keyword-only indent knob.
        params = inspect.signature(to_json).parameters
        assert list(params) == ["data", "indent"]
        assert params["indent"].kind is inspect.Parameter.KEYWORD_ONLY
        assert list(inspect.signature(export_as).parameters) == ["data", "fmt"]

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
