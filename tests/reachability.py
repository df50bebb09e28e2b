"""Production-reachability ledger: the function bodies under ``src/repro``
that no shipped entry point runs.

Run it from the repository root::

    PYTHONPATH=src python tests/reachability.py

It runs every production entry point in a process of its own under
``sys.setprofile``/``threading.setprofile`` and records which code
objects under ``src/repro`` were called.  The entry points are the
``repro-experiments`` verbs, the report generator, the examples, the
README's Python blocks and a ``serve-api`` process driven over HTTP.
Every ``def`` in the package must then be one of:

- reached by at least one of them (methods, properties, nested
  functions and closures all count as bodies);
- exempt by rule: dunders, ``validate``/``check_invariants`` (the
  correctness checks the tests run) and the bodies of ``Protocol``
  classes, which are declarations;
- listed in ``tests/reachability_allowlist.txt`` as
  ``module:qualname  reason``.

The script exits 1 on a body that none of them runs and that is not
allowlisted, on an allowlisted body that now runs (a stale entry), and
on an entry point that exits with an unexpected status.  ``--verbose``
echoes each entry point's output.  pytest does not collect this file;
``tests/test_reachability.py`` covers the matcher.
"""

from __future__ import annotations

import argparse
import ast
import atexit
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
    """One ``def``: where it is, and whether a rule exempts it."""

    name: str  # "module:qualname", qualname as Python spells it
    path: str
    lines: tuple[int, ...]  # the def line, and the first decorator's
    exempt: bool


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
                out.append(
                    Body(f"{module}:{prefix}{name}", str(path), lines, exempt)
                )
                walk(child, f"{prefix}{name}.<locals>.", False)
            else:
                walk(child, prefix, in_protocol)

    walk(ast.parse(path.read_text(encoding="utf-8")), "", False)
    return out


def package_bodies(package: Path = PACKAGE) -> list[Body]:
    bodies: list[Body] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        bodies += defined_bodies(path, ".".join(parts))
    return bodies


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


def verdict(missing: list[str], ran: list[str], allowed: Iterable[str]) -> tuple[list[str], list[str]]:
    """``(unlisted, stale)``: bodies that never ran and are not
    allowlisted, and allowlist entries whose body ran."""
    allowed = set(allowed)
    return (
        [name for name in missing if name not in allowed],
        sorted(allowed.intersection(ran)),
    )


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
def profile(called: dict[int, object]):
    """Install a profiler on this thread and every thread started after
    it that keeps each called code object in ``called`` (by id; holding
    the object keeps its id from being reused).  Returns an uninstaller.
    """

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called[id(code)] = code

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


def _child(out: str, target: list[str]) -> None:
    """Run one entry point in this process under the recorder and write
    the called ``(file, line)`` pairs under ``src/repro`` to ``out`` at
    exit.  ``target`` is ``-m module args...``, ``-c code`` or
    ``script args...``, as on the ``python`` command line."""
    called: dict[int, object] = {}
    pid = os.getpid()

    def dump() -> None:
        uninstall()
        if os.getpid() == pid:  # not in a forked pool worker
            lines = called_lines(called, str(PACKAGE))
            Path(out).write_text(json.dumps(sorted(lines)))

    atexit.register(dump)
    uninstall = profile(called)
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
        Entry([*CLI, "e3", "--no-cache"]),
        Entry([*sweep, "--jobs", "2"]),
        Entry([*sweep, "--format", "csv"], before=_tear(sweep_cache)),
        Entry([*sweep, "--format", "json"]),
        Entry([*trace, "--gantt"]),
        Entry([*trace, "--chrome", str(tmp / "trace.json"), "--telemetry"]),
        Entry([*trace, "--format", "json"]),
        Entry([*trace, "--faults", f"@{fault_file}"]),
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


def _read(out: Path, failures: list[str]) -> set[tuple[str, int]]:
    if not out.exists():
        failures.append(f"{out.name}: the entry point wrote no ledger")
        return set()
    return {(path, line) for path, line in json.loads(out.read_text())}


def record(tmp: Path, verbose: bool = False) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every entry point; returns the called ``(file, line)`` pairs
    and the failures."""
    env = {**os.environ, "REPRO_CACHE_DIR": str(tmp / "cache")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    called: set[tuple[str, int]] = set()
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
        called |= _read(out, failures)
    started = time.perf_counter()
    out = outs / "serve-api.json"
    failures += _serve_api(out, env)
    print(f"[{time.perf_counter() - started:5.1f}s] serve-api session", flush=True)
    called |= _read(out, failures)
    return called, failures


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
        called, failures = record(Path(tmp), args.verbose)
    bodies = package_bodies()
    missing, ran = unreached(bodies, called)
    allowed = read_allowlist()
    unlisted, stale = verdict(missing, ran, allowed)
    unknown = sorted(set(allowed) - {b.name for b in bodies})
    n_exempt = sum(b.exempt for b in bodies)
    print(
        f"\n{len(bodies)} function bodies: {len(ran)} ran, {n_exempt} exempt, "
        f"{len(missing)} never ran ({len(allowed)} allowlisted) "
        f"in {time.perf_counter() - started:.1f}s"
    )
    for failure in failures:
        print(f"FAILED entry point: {failure}")
    for name in unlisted:
        print(f"NEVER RAN: {name}")
    for name in stale:
        print(f"STALE allowlist entry (it ran): {name}")
    for name in unknown:
        print(f"UNKNOWN allowlist entry (no such body): {name}")
    return 1 if failures or unlisted or stale or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
