"""Self-test of the benchmark's own checks; exits 1 if any fails.

    PYTHONPATH=src REPRO_NO_CACHE=1 python3 perfbench/selftest.py

- a pinned spec's payload passes the digest check, directly and after a
  binary ``ResultCache`` round trip (the hit path must equal the miss);
- every tampered copy of it (makespan, migrations, energy, summary,
  spec) fails the check;
- the tracing proxy keeps a static policy on the executor's fast path,
  and a traced run's payload is byte-identical to the untraced one.
"""

from __future__ import annotations

import copy
import sys
import tempfile

import specs as S
from repro.experiments import runner
from repro.experiments.cache import ResultCache
from repro.experiments.spec import RunResult
from repro.server.jobs import result_payload
from tracing import Tracer, is_static
from worker import check, cold_start


def tampered(payload: dict) -> dict[str, dict]:
    """One corrupted copy of ``payload`` per field the pin must cover."""
    out = {}
    for name, edit in {
        "makespan": lambda p: p.__setitem__("makespan", p["makespan"] * (1 + 1e-12)),
        "migrations": lambda p: p.__setitem__("migrations", p["migrations"] + 1),
        "energy": lambda p: p["energy"].__setitem__(
            "total_j", p["energy"]["total_j"] + 1e-9),
        "summary": lambda p: p["summary"].__setitem__(
            "n_tasks", p["summary"]["n_tasks"] + 1),
        "spec": lambda p: p["spec"].__setitem__("n_workers", p["spec"]["n_workers"] + 1),
    }.items():
        bad = copy.deepcopy(payload)
        edit(bad)
        out[name] = bad
    return out


def main() -> int:
    failures = []
    spec = S.closed_spec("heat", S.MANAGED, {"grid": 4, "iterations": 2}, seed=0)
    cold_start()
    payload = runner.dispatch_spec(spec).result.to_payload()
    if not check(spec, payload)[0]:
        failures.append("a pinned payload failed its check")
    for field, bad in tampered(payload).items():
        if check(spec, bad)[0]:
            failures.append(f"a payload with a tampered {field} passed the check")

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp, binary=True)
        cache.put(spec.cache_key(), payload)
        hit = result_payload(RunResult.from_payload(spec, cache.get(spec.cache_key())))
    if not check(spec, hit)[0]:
        failures.append("a cache hit's payload differs from its miss")

    static = S.closed_spec("heat", S.UNMANAGED, {"grid": 4, "iterations": 2}, seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        if not is_static(runner.make_policy(static.policy)):
            failures.append("the tracing proxy knocks a static policy off the fast path")
        cold_start()
        traced = runner.dispatch_spec(spec).result.to_payload()
        runner.dispatch_spec(static)
    finally:
        tracer.uninstall()
    if traced != payload:
        failures.append("the traced payload differs from the untraced one")
    counts = tracer.totals()[1]
    if counts["static_fast_path"] != 1 or counts["static_off_fast_path"]:
        failures.append(f"static fast-path runs under tracing: {counts}")

    for line in failures:
        print(f"FAIL {line}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
