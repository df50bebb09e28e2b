"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is the pure-Python package
under ``src/``; nothing is built.  Each run starts the workload in
worker processes of its own (``worker.py``): ``SETUPS - 1`` processes
that only set up and exit, then the measuring one.  ``setup_s`` is the
median over all of them of process start to ``READY``; every other
figure comes from the measuring process.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-cold", "twin-whatif", "twin-hits")
#: Set-ups per run: the median damps interpreter start-up noise.
SETUPS = 7
#: Wall-clock cap for one worker process.
WORKER_TIMEOUT_S = 170.0
#: Figures printed for reading but not gated: each needs a property not
#: every workload has (a stream, 100 or 1,000 samples), or is 0 when the
#: run is correct (``failed_ratio``; ``failed``/``attempted`` carry it).
EXTRA_UNITS = {
    "stream_events_per_s": "1/s",
    "req_p90_ms": "ms",
    "req_p99_ms": "ms",
    "req_samples": "count",
    "failed_ratio": "ratio",
    "host_slowdown": "ratio",
}


def _env(scratch: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Stream sub-runs would otherwise use the process-default result
    # cache under the home directory; the twin gets its own cache.
    env["REPRO_NO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: argparse.Namespace, scratch: Path, setup_only: bool) -> tuple[float, dict[str, Any] | None]:
    """Run one worker; returns (seconds to READY, parsed result line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(scratch), cwd=ROOT)
    ready_s = None
    result = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = perf_counter() - t0
            elif line.startswith("{"):
                result = json.loads(line)
        proc.wait(timeout=max(1.0, WORKER_TIMEOUT_S - (perf_counter() - t0)))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready_s is None or (not setup_only and result is None):
        raise RuntimeError(f"worker for {args.workload} failed (exit {proc.returncode})")
    return ready_s, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    scratch = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_worker(args, scratch, setup_only=True)[0] for _ in range(SETUPS - 1)]
        ready_s, result = _worker(args, scratch, setup_only=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert result is not None
    setups.append(ready_s)

    e2e = dict(result["end_to_end"])
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mib"] = result["peak_rss_mib"]
    section = "per_layer" if args.trace else "end_to_end"
    values = result["per_layer"] if args.trace else e2e

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(EXTRA_UNITS)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} setups={len(setups)}")
    for name in sorted(e2e) + (sorted(values) if args.trace else []):
        value = e2e[name] if name in e2e else values[name]
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared[section]
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
