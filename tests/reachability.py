"""Production-reachability ledger: the function bodies under ``src/repro``
that no shipped entry point runs, the internal parameters that every
entry point passes one value, and the record fields nothing reads.

Run it from the repository root::

    PYTHONPATH=src python tests/reachability.py

It runs every production entry point in a process of its own under
``sys.setprofile``/``threading.setprofile`` and records which code
objects under ``src/repro`` were called, and the distinct values each
of their arguments received.  The entry points are the
``repro-experiments`` verbs, the report generator, the examples, the
README's Python blocks and a ``serve-api`` process driven over HTTP;
the process-pool workers of a ``--jobs 2`` sweep record too.

Bodies.  Every ``def`` in the package must be one of:

- reached by at least one entry point (methods, properties, nested
  functions and closures all count as bodies);
- exempt by rule: dunders, ``validate``/``check_invariants`` (the
  correctness checks the tests run) and the bodies of ``Protocol``
  classes, which are declarations;
- allowlisted as ``module:qualname  reason``.

Parameters.  A parameter with a default, of a body that ran and is not
surface (:func:`is_surface`: ``main``, the names in ``repro.__all__``
with their public methods, each experiment's ``run``, and the workload
builders with their nested helpers), must have received at least two
distinct values, or one value that is not a scalar (bool, int, float,
str, bytes, ``None`` or a short tuple of these).  Otherwise the report
says whether it was always the default (delete the parameter) or never
the default (drop the default, or fold the value in), unless it is
allowlisted as ``module:qualname(param)  reason``.

Fields.  Every field of a ``@dataclass`` or ``NamedTuple`` class under
``src/repro`` must be read: loaded as an attribute or named in a string
somewhere under ``src/repro``, or belong to a class passed whole to
``fields()``, ``asdict()`` and the like.  Otherwise it must be
allowlisted as ``module:Class.field  reason``.

The script exits 1 on a finding that is not allowlisted, on an
allowlist entry that no longer holds (the body ran, the parameter
varied, the field is read) or names nothing, and on an entry point that
exits with an unexpected status.  ``--verbose`` echoes each entry
point's output.  pytest does not collect this file;
``tests/test_reachability.py`` covers the matchers.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import functools
import importlib
import json
import os
import re
import runpy
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from multiprocessing.util import Finalize, register_after_fork
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reachability_allowlist.txt")

#: Method names the member guard in ``tests/test_public_api.py`` exempts
#: too: correctness checks that only the tests call.
EXEMPT_NAMES = frozenset({"validate", "check_invariants"})


# ----------------------------------------------------------------------
# The bodies a source tree defines
# ----------------------------------------------------------------------
class Body(NamedTuple):
    """One ``def``: where it is, whether a rule exempts it, and its
    parameters that have defaults."""

    name: str  # "module:qualname", qualname as Python spells it
    path: str
    lines: tuple[int, ...]  # the def line, and the first decorator's
    exempt: bool
    defaults: tuple[tuple[str, str], ...]  # (parameter, default's source)


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[tuple[str, str], ...]:
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return tuple((a.arg, ast.unparse(d)) for a, d in pairs)


def _is_protocol(cls: ast.ClassDef) -> bool:
    return any(
        (isinstance(b, ast.Name) and b.id == "Protocol")
        or (isinstance(b, ast.Attribute) and b.attr == "Protocol")
        for b in cls.bases
    )


def defined_bodies(path: Path, module: str) -> list[Body]:
    """Every function body ``path`` defines, nested ones included."""
    out: list[Body] = []

    def walk(node: ast.AST, prefix: str, in_protocol: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", _is_protocol(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                lines = (child.lineno, *(d.lineno for d in child.decorator_list[:1]))
                exempt = (
                    in_protocol
                    or name in EXEMPT_NAMES
                    or (name.startswith("__") and name.endswith("__"))
                )
                out.append(Body(
                    f"{module}:{prefix}{name}", str(path), lines, exempt,
                    () if in_protocol else _defaults(child),
                ))
                walk(child, f"{prefix}{name}.<locals>.", False)
            else:
                walk(child, prefix, in_protocol)

    walk(ast.parse(path.read_text(encoding="utf-8")), "", False)
    return out


def package_modules(package: Path = PACKAGE) -> list[tuple[Path, str]]:
    """``(path, dotted module name)`` for every source file."""
    out: list[tuple[Path, str]] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        out.append((path, ".".join(parts)))
    return out


def package_bodies(package: Path = PACKAGE) -> list[Body]:
    return [b for path, module in package_modules(package) for b in defined_bodies(path, module)]


def unreached(bodies: Iterable[Body], called: set[tuple[str, int]]) -> tuple[list[str], list[str]]:
    """``(never run, ran)``: the names of the non-exempt bodies none of
    whose lines starts a called code object, and of those that ran.

    A decorated function's ``co_firstlineno`` is its first decorator's
    line on some Python versions and its ``def`` line on others, so
    either counts.
    """
    missing: list[str] = []
    ran: list[str] = []
    for body in bodies:
        if body.exempt:
            continue
        hit = any((body.path, line) in called for line in body.lines)
        (ran if hit else missing).append(body.name)
    return missing, ran


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``{module:qualname: reason}`` from ``name  reason`` lines; blank
    lines and ``#`` comments are skipped."""
    entries: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        entries[name] = reason.strip()
    return entries


def verdict(missing: Iterable[str], ran: Iterable[str], allowed: Iterable[str]) -> tuple[list[str], list[str]]:
    """``(unlisted, stale)``: findings (bodies that never ran, single-
    valued parameters, unread fields) that are not allowlisted, and
    allowlist entries that the check passed (a body that ran, a
    parameter that varied, a field that is read)."""
    allowed = set(allowed)
    return (
        [name for name in missing if name not in allowed],
        sorted(allowed.intersection(ran)),
    )


# ----------------------------------------------------------------------
# Single-valued parameters
# ----------------------------------------------------------------------
#: ``(file, first line, parameter)`` -> its distinct value reprs, or
#: ``None`` once it varied.
Values = dict[tuple[str, int, str], set[str] | None]


def merge(old: set[str] | None, got: set[str] | None) -> set[str] | None:
    """Two records of one parameter as one: ``None`` once it varied."""
    both = None if old is None or got is None else old | got
    return None if both is None or len(both) > 1 else both


def is_surface(name: str, exported: set[str], builders: set[str]) -> bool:
    """Whether a caller outside the package chooses ``name``'s arguments:
    ``main``; an ``exported`` function or class, with the public and
    dunder methods of the class; a workload builder in ``builders``,
    with the functions nested in it."""
    owner, _, member = name.rpartition(".")
    return (
        name.endswith(":main")
        or name in exported
        or name in builders
        or (owner in exported and (not member.startswith("_") or member.endswith("__")))
        or any(name.startswith(f"{b}.<locals>.") for b in builders)
    )


def package_surface(bodies: Iterable[Body]) -> set[str]:
    """The bodies :func:`is_surface` exempts: ``exported`` is
    ``repro.__all__`` and each experiment's ``run``, ``builders`` the
    registered workload builders."""
    import repro
    from repro.experiments.registry import EXPERIMENTS
    from repro.workloads import WORKLOADS

    def spelled(obj) -> str:
        return f"{obj.__module__}:{obj.__qualname__}"

    exported = {
        spelled(obj) for obj in map(functools.partial(getattr, repro), repro.__all__)
        if hasattr(obj, "__qualname__")
    }
    exported |= {spelled(m.run) for m in EXPERIMENTS.values()}
    builders = {spelled(fn) for fn in WORKLOADS.values()}
    return {b.name for b in bodies if is_surface(b.name, exported, builders)}


def _default_repr(module: str, source: str) -> str | None:
    try:
        return scalar_repr(ast.literal_eval(source))
    except ValueError:
        pass
    try:
        return scalar_repr(eval(source, vars(importlib.import_module(module))))
    except (ImportError, NameError, AttributeError):
        return None  # a module the ledger cannot import, or a class-level name


def single_valued(bodies: Iterable[Body], values: Values, surface: set[str]) -> tuple[dict[str, str], list[str]]:
    """``(found, varied)``: the defaulted parameters of the called bodies
    outside ``surface`` that received exactly one value, spelled
    ``module:qualname(param)``, each with what to do about it; and those
    that received more than one, or a non-scalar one."""
    found: dict[str, str] = {}
    varied: list[str] = []
    for body in bodies:
        if body.name in surface:
            continue
        for param, source in body.defaults:
            keys = [(body.path, line, param) for line in body.lines]
            seen = [values[key] for key in keys if key in values]
            if not seen:
                continue  # never called
            name = f"{body.name}({param})"
            got = functools.reduce(merge, seen)
            if got is None:
                varied.append(name)
                continue
            (value,) = got
            default = _default_repr(body.name.partition(":")[0], source)
            found[name] = (
                f"always the default {source}" if value == default
                else f"default {source} never used; always {value}"
            )
    return found, varied


def known_names(bodies: Iterable[Body], surface: set[str], fields: Iterable[tuple[str, str, str]]) -> set[str]:
    """What an allowlist entry may name: a body, a defaulted parameter of
    a body outside ``surface``, or a field."""
    names = {f[0] for f in fields}
    for body in bodies:
        names.add(body.name)
        if body.name not in surface:
            names.update(f"{body.name}({param})" for param, _ in body.defaults)
    return names


# ----------------------------------------------------------------------
# Unread fields
# ----------------------------------------------------------------------
#: Calls and attributes through which every field of a class is read.
EXPORTERS = frozenset({"fields", "asdict", "astuple", "_asdict", "_fields", "__dataclass_fields__"})


def _is_record(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` or a ``NamedTuple`` class."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(
        (isinstance(m, ast.Name) and m.id in ("dataclass", "NamedTuple"))
        or (isinstance(m, ast.Attribute) and m.attr in ("dataclass", "NamedTuple"))
        for m in [*marks, *cls.bases]
    )


def defined_fields(path: Path, module: str) -> list[tuple[str, str, str]]:
    """``(module:Class.field, class name, field name)`` for every field of
    a dataclass or ``NamedTuple`` that ``path`` defines."""
    out: list[tuple[str, str, str]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                if _is_record(child):
                    out.extend(
                        (f"{module}:{qual}.{stmt.target.id}", child.name, stmt.target.id)
                        for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                    )
                walk(child, f"{qual}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{prefix}{child.name}.<locals>.")

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def field_reads(path: Path) -> tuple[set[str], set[str]]:
    """``(names, exported)``: the attribute names ``path`` loads and the
    strings it holds; and the classes it passes whole to ``fields()``,
    ``asdict()`` and the like (by name, or as ``self``/``cls``/
    ``type(self)`` inside the class)."""
    names: set[str] = set()
    exported: set[str] = set()

    def owner(node: ast.AST, cls: str) -> str:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type":
            return cls
        if isinstance(node, ast.Name):
            return cls if node.id in ("self", "cls") else node.id
        return ""

    def walk(node: ast.AST, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                names.add(child.attr)
                if child.attr in EXPORTERS:
                    exported.add(owner(child.value, cls))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                names.add(child.value)
            elif isinstance(child, ast.Call) and child.args:
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if called in EXPORTERS:
                    exported.add(owner(child.args[0], cls))
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return names, exported


def package_fields(package: Path = PACKAGE) -> list[tuple[str, str, str]]:
    return [f for path, module in package_modules(package) for f in defined_fields(path, module)]


def unread_fields(paths: Iterable[Path], fields: list[tuple[str, str, str]]) -> tuple[list[str], list[str]]:
    """``(unread, read)``: the ``fields`` that no file in ``paths`` loads
    as an attribute or names in a string, outside the classes exported
    whole; and the rest."""
    names: set[str] = set()
    exported: set[str] = set()
    for path in paths:
        got, whole = field_reads(path)
        names |= got
        exported |= whole
    unread: list[str] = []
    read: list[str] = []
    for name, cls, attr in fields:
        (read if attr in names or cls in exported else unread).append(name)
    return unread, read


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
#: The argument types whose values the recorder tells apart; any other
#: value, a string or bytes longer than 200 and a tuple longer than 8
#: mark the parameter as varied.
SCALARS = (bool, int, float, str, bytes, type(None))


def scalar_repr(value: object) -> str | None:
    """``repr(value)`` for a scalar or a short tuple of scalars, else
    ``None`` (varied)."""
    if isinstance(value, (str, bytes)) and len(value) > 200:
        return None
    if isinstance(value, SCALARS) or (
        isinstance(value, tuple)
        and len(value) <= 8
        and all(isinstance(v, SCALARS) for v in value)
    ):
        return repr(value)
    return None


def profile(
    called: dict[int, object],
    values: dict[int, dict[str, str | None]] | None = None,
    prefix: Path = PACKAGE,
):
    """Install a profiler on this thread and every thread started after
    it that keeps each called code object in ``called`` (by id; holding
    the object keeps its id from being reused).  With ``values``, it
    also keeps, for each code object under ``prefix``, the
    :func:`scalar_repr` of each argument while that is the only value
    the argument has had, ``None`` once it has had a second value or a
    non-scalar one; such arguments are not read again.  Returns an
    uninstaller.
    """
    root = str(prefix)
    watched: dict[int, tuple[str, ...]] = {}  # code id -> arguments still single-valued

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = id(code)
        called[key] = code
        if values is None:
            return
        names = watched.get(key)
        if names is None:
            names = watched[key] = (
                code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
                if code.co_filename.startswith(root) else ()
            )
        if not names:
            return
        seen = values.setdefault(key, {})
        local = frame.f_locals
        varied = False
        for name in names:
            text = scalar_repr(local[name]) if name in local else None
            if text is None or seen.setdefault(name, text) != text:
                seen[name] = None
                varied = True
        if varied:
            watched[key] = tuple(n for n in names if seen[n] is not None)

    previous = sys.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)

    def uninstall() -> None:
        sys.setprofile(previous)
        threading.setprofile(None)

    return uninstall


def called_lines(called: dict[int, object], prefix: str) -> set[tuple[str, int]]:
    return {
        (code.co_filename, code.co_firstlineno)
        for code in called.values()
        if code.co_filename.startswith(prefix)
    }


def keyed_values(called: dict[int, object], values: dict[int, dict[str, str | None]]) -> Values:
    """:func:`profile`'s ``values`` keyed by where each code object starts."""
    out: Values = {}
    for key, seen in values.items():
        code = called[key]
        for name, text in seen.items():
            at = (code.co_filename, code.co_firstlineno, name)
            out[at] = merge(out.get(at, set()), None if text is None else {text})
    return out


def _child(out: str, target: list[str]) -> None:
    """Run one entry point in this process under the recorder and write
    the called ``(file, line)`` pairs and argument values under
    ``src/repro`` to ``out`` at exit.  A forked process-pool worker
    writes ``out.<pid>`` when it finishes: multiprocessing runs its
    finalizers, not ``atexit``, before ``os._exit``, and clears them on
    fork, so the finalizer is installed from an after-fork hook.  ``target`` is
    ``-m module args...``, ``-c code`` or ``script args...``, as on the
    ``python`` command line."""
    called: dict[int, object] = {}
    values: dict[int, dict[str, str | None]] = {}

    def dump(path: str) -> None:
        uninstall()
        doc = {
            "called": sorted(called_lines(called, str(PACKAGE))),
            "values": [
                [*key, None if got is None else sorted(got)]
                for key, got in keyed_values(called, values).items()
            ],
        }
        Path(path).write_text(json.dumps(doc))

    def in_worker(dump) -> None:
        Finalize(None, dump, args=(f"{out}.{os.getpid()}",), exitpriority=0)

    pid = os.getpid()
    atexit.register(lambda: os.getpid() == pid and dump(out))
    register_after_fork(dump, in_worker)
    uninstall = profile(called, values)
    if target[0] == "-m":
        sys.argv = ["-m", *target[2:]]
        sys.path[0] = os.getcwd()
        runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    elif target[0] == "-c":
        sys.argv = ["-c", *target[2:]]
        sys.path[0] = os.getcwd()
        exec(compile(target[1], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = list(target)
        sys.path[0] = str(Path(target[0]).resolve().parent)
        runpy.run_path(target[0], run_name="__main__")


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------
CLI = ["-m", "repro.experiments.cli"]


def readme_blocks() -> list[str]:
    """The README's Python code blocks, each a program of its own."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


class Entry(NamedTuple):
    """One entry-point run: ``target`` as on the ``python`` command line
    (``-m module args...``, ``-c code`` or ``script args...``)."""

    target: list[str]
    status: int = 0  # the exit status it must end with
    env: dict[str, str] = {}  # on top of the ledger's environment
    before: Callable[[], None] | None = None  # set-up run just before it


def _tear(cache_dir: Path) -> Callable[[], None]:
    """Truncate every JSON entry in ``cache_dir``, as a crash mid-write
    would leave it: the next read quarantines them and recomputes."""

    def tear() -> None:
        for entry in sorted(cache_dir.glob("*.json")):
            entry.write_text(entry.read_text()[:20])

    return tear


def entry_points(tmp: Path) -> list[Entry]:
    """Every entry point but the HTTP session, in the order they run.
    They share one result cache, so later runs also take the hit path."""
    from repro.faults.plan import PRESETS

    fault_file = tmp / "faults.json"
    fault_file.write_text('{"copy_fail_every": 2, "seed": 3}')
    sweep_cache = tmp / "sweep-cache"
    sweep = [*CLI, "sweep", "heat,cg", "--policies", "tahoe,nvm-only",
             "--cache-dir", str(sweep_cache)]
    trace = [*CLI, "trace", "heat"]
    examples = {"REPRO_CACHE_DIR": str(tmp / "examples-cache")}
    return [
        # The service smokes: one short stream run, and E13 cold.
        Entry([*CLI, "serve", "heat", "--policy", "tahoe",
               "--stream", '{"horizon_s":0.2,"seed":1}']),
        Entry([*CLI, "run", "e13"]),
        Entry(["-m", "repro.experiments.report", "--fast",
               "--out", str(tmp / "EXPERIMENTS.md")]),
        Entry([*CLI, "run", "e1", "--cache-stats", "--cache-prune", "entries=100000"]),
        Entry([*CLI, "run", "--cache-prune", "age=30d"]),
        Entry([*CLI, "e3", "--no-cache"]),
        Entry([*sweep, "--jobs", "2"]),
        Entry([*sweep, "--format", "csv"], before=_tear(sweep_cache)),
        Entry([*sweep, "--format", "json"]),
        Entry([*sweep, "--value", "migrations"]),
        Entry([*trace, "--gantt"]),
        Entry([*trace, "--chrome", str(tmp / "trace.json"), "--telemetry"]),
        Entry([*trace, "--format", "json"]),
        Entry([*trace, "--faults", f"@{fault_file}"]),
        # DRAM shrinks after the first writes: dirty residents are
        # written back (critical copies), clean ones remapped.
        Entry([*trace, "--telemetry", "--faults",
               '{"capacity_losses": [{"at_s": 0.02, "lose_bytes": 134217728}]}']),
        *(Entry([*trace, "--faults", name]) for name in sorted(PRESETS)),
        # Copies that fail every retry, dirty write-backs among them.
        Entry([*CLI, "trace", "randomdag", "--dram-mib", "64",
               "--faults", '{"copy_fail_prob": 0.9}']),
        Entry([*trace, "--policy", "bogus"], status=2),
        Entry([*CLI, "metrics", "cg", "--format", "json"]),
        Entry([*CLI, "metrics", "cg", "--format", "csv"]),
        Entry([*CLI, "metrics", "cg", "--format", "prom",
               "-o", str(tmp / "metrics.prom")]),
        Entry([*CLI, "serve", "heat", "--format", "json",
               "--tenant", '{"name":"a","rate_hz":40}',
               "--tenant", '{"name":"b","rate_hz":20}',
               "--stream", '{"horizon_s":0.1,"seed":2}']),
        *(Entry([str(path)], env=examples)
          for path in sorted((ROOT / "examples").glob("*.py"))),
        *(Entry(["-c", block]) for block in readme_blocks()),
    ]


def _http(method: str, url: str, doc=None) -> tuple[int, str]:
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _session(base: str) -> list[str]:
    """Drive every route of a running ``serve-api``; returns the
    requests whose status was not the expected one."""
    from repro.experiments.spec import RunSpec
    from repro.memory.presets import nvm_bandwidth_scaled

    spec = RunSpec(
        "heat", "tahoe", nvm_bandwidth_scaled(0.5), dram_capacity=8 << 20,
        n_workers=4, workload_overrides={"grid": 4, "iterations": 2},
    ).to_dict()
    broken = {**spec, "workload_overrides": {"bogus": 1}}
    bad: list[str] = []

    def expect(status: int, method: str, path: str, doc=None) -> dict:
        got, body = _http(method, base + path, doc)
        if got != status:
            bad.append(f"{method} {path}: {got}, expected {status}: {body[:200]}")
        return json.loads(body) if body.startswith("{") else {}

    expect(200, "GET", "/healthz")
    key = expect(200, "POST", "/v1/runs", {"spec": spec}).get("key", "")
    expect(200, "POST", "/v1/runs", spec)  # deduplicated
    queued = expect(202, "POST", "/v1/runs?wait=0", {**spec, "n_workers": 2})
    queued_key = queued.get("key", "")
    expect(200, "GET", f"/v1/runs/{queued_key}/events")
    expect(200, "GET", f"/v1/runs/{queued_key}?wait=1")
    expect(200, "POST", "/v1/runs", {"spec": broken})  # fails in the pool
    expect(200, "GET", "/v1/runs")
    expect(200, "POST", "/v1/whatif",
           {"base": spec, "overrides": {"memory.dram_bytes": 16 << 20}})
    expect(200, "POST", "/v1/whatif",
           {"base": key, "overrides": {"n_workers": 2}})
    expect(400, "POST", "/v1/whatif", {"base": spec})
    expect(400, "POST", "/v1/whatif", {"base": spec, "overrides": {"dram": 1}})
    expect(400, "POST", "/v1/runs", [1, 2])
    expect(404, "GET", "/v1/runs/nope")
    expect(404, "POST", "/v1/whatif", {"base": "nope", "overrides": {"n_workers": 2}})
    expect(200, "GET", "/metrics")
    return bad


def _run(target: list[str], out: Path, env: dict[str, str], verbose: bool) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, __file__, "--child", str(out), "--", *target],
        env=env, cwd=ROOT, text=True,
        stdout=None if verbose else subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def _serve_api(out: Path, env: dict[str, str]) -> list[str]:
    """Boot ``serve-api`` on an ephemeral port, run the session, stop it
    with SIGINT (its Ctrl-C path) and return what went wrong."""
    target = [*CLI, "serve-api", "--port", "0", "--workers", "2"]
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", str(out), "--", *target],
        env=env, cwd=ROOT, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://\S+:\d+", line)
        if match is None:
            return [f"serve-api did not start: {line}{proc.stdout.read()}"]
        problems = _session(match.group(0))
        proc.send_signal(signal.SIGINT)
        rest, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            problems.append(f"serve-api exited {proc.returncode}: {rest}")
        return problems
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _read(out: Path, called: set[tuple[str, int]], values: Values, failures: list[str]) -> None:
    """Fold the ledger ``out`` and its pool workers' ``out.<pid>`` into
    ``called`` and ``values``."""
    if not out.exists():
        failures.append(f"{out.name}: the entry point wrote no ledger")
    for path in [out, *sorted(out.parent.glob(f"{out.name}.*"))]:
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        called.update((file, line) for file, line in doc["called"])
        for file, line, param, got in doc["values"]:
            key = (file, line, param)
            values[key] = merge(values.get(key, set()), None if got is None else set(got))


def record(tmp: Path, verbose: bool = False) -> tuple[set[tuple[str, int]], Values, list[str]]:
    """Run every entry point; returns the called ``(file, line)`` pairs,
    the arguments' values and the failures."""
    env = {**os.environ, "REPRO_CACHE_DIR": str(tmp / "cache")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    called: set[tuple[str, int]] = set()
    values: Values = {}
    failures: list[str] = []
    outs = tmp / "called"
    outs.mkdir()
    for i, entry in enumerate(entry_points(tmp)):
        if entry.before is not None:
            entry.before()
        started = time.perf_counter()
        out = outs / f"{i}.json"
        done = _run(entry.target, out, {**env, **entry.env}, verbose)
        label = " ".join(entry.target).splitlines()[0][:100]
        print(f"[{time.perf_counter() - started:5.1f}s] {label}", flush=True)
        if done.returncode != entry.status:
            failures.append(
                f"{label}: exit {done.returncode}, expected {entry.status}\n"
                f"{done.stdout or ''}"
            )
        _read(out, called, values, failures)
    started = time.perf_counter()
    out = outs / "serve-api.json"
    failures += _serve_api(out, env)
    print(f"[{time.perf_counter() - started:5.1f}s] serve-api session", flush=True)
    _read(out, called, values, failures)
    return called, values, failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _child(argv[1], argv[3:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="echo each entry point's output")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-ledger-") as tmp:
        called, values, failures = record(Path(tmp), args.verbose)
    bodies = package_bodies()
    surface = package_surface(bodies)
    fields = package_fields()
    allowed = read_allowlist()

    missing, ran = unreached(bodies, called)
    found, varied = single_valued(bodies, values, surface)
    unread, read = unread_fields([path for path, _ in package_modules()], fields)
    unlisted, stale = [], []
    for findings, passed in ((missing, ran), (found, varied), (unread, read)):
        new, old = verdict(findings, passed, allowed)
        unlisted += [f"{name}: {found[name]}" if name in found else name for name in new]
        stale += old
    unknown = sorted(set(allowed) - known_names(bodies, surface, fields))

    n_exempt = sum(b.exempt for b in bodies)
    n_params = len(found) + len(varied)
    print(
        f"\n{len(bodies)} function bodies: {len(ran)} ran, {n_exempt} exempt, "
        f"{len(missing)} never ran\n"
        f"{n_params} called internal parameters with defaults: {len(varied)} varied, "
        f"{len(found)} received one value\n"
        f"{len(fields)} record fields: {len(read)} read, {len(unread)} unread\n"
        f"{len(allowed)} allowlisted; {time.perf_counter() - started:.1f}s"
    )
    for failure in failures:
        print(f"FAILED entry point: {failure}")
    for name in unlisted:
        print(f"NOT ALLOWLISTED: {name}")
    for name in stale:
        print(f"STALE allowlist entry (it ran, varied or is read): {name}")
    for name in unknown:
        print(f"UNKNOWN allowlist entry (no such body, internal parameter or field): {name}")
    return 1 if failures or unlisted or stale or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
