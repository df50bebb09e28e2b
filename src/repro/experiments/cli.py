"""Command-line entry: run experiments, sweeps, traces, and telemetry.

The CLI is verb-structured; every verb shares one common option block
(``--seed``, ``--jobs``, ``--cache-dir``, ``--format``) and the same exit
codes (0 ok, 1 a run failed, 2 usage / unknown name)::

    repro-experiments e1 e3              # default verb: run experiments
    repro-experiments run all --full     # the whole suite, full sizes
    repro-experiments run e3 --jobs 4    # fan runs out over 4 processes
    repro-experiments sweep cg,heat --policies tahoe,nvm-only --nvm bw-1/2
    repro-experiments trace heat --policy tahoe --nvm bw-1/8 --gantt
    repro-experiments metrics cg --policy tahoe --format prom
    repro-experiments serve heat --policy tahoe --stream '{"horizon_s":0.4}'
    repro-experiments serve-api --port 8077 --workers 2

``serve`` runs one described workload as an open multi-tenant service
(seeded arrivals, credit-based admission, batch scheduling rounds — see
``docs/service.md``).  ``serve-api`` boots the long-lived digital-twin
HTTP API over the cached simulator (``docs/server.md``).  ``metrics``
executes one described run under telemetry and exports the
metric series, time-series samples and placement audit log (JSON / CSV /
Prometheus text).  Host-time performance is measured by the repository
benchmark (``perfbench/``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.cache import get_cache, set_cache_enabled
from repro.experiments.parallel import set_default_workers
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = ["main"]

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


# ----------------------------------------------------------------------
# Shared option block and helpers
# ----------------------------------------------------------------------
def _common_parser(formats: tuple[str, ...], default_format: str) -> argparse.ArgumentParser:
    """The parent parser every verb inherits: one flag vocabulary."""
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("common options")
    g.add_argument("--seed", type=int, default=None, help="profiler seed override")
    g.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for run fan-out (default: $REPRO_WORKERS or serial)",
    )
    g.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result-cache directory (overrides $REPRO_CACHE_DIR)",
    )
    g.add_argument(
        "--format", choices=formats, default=default_format,
        help=f"output format (default: {default_format})",
    )
    return p


def _apply_common(args: argparse.Namespace) -> None:
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    if args.jobs is not None:
        set_default_workers(args.jobs)


def _experiments_epilog() -> str:
    lines = ["experiments:"]
    for key in sorted(EXPERIMENTS):
        lines.append(f"  {key:<5} {EXPERIMENTS[key].TITLE}")
    return "\n".join(lines)


def _nvm_device(name: str):
    from repro.memory.presets import NVM_CONFIGS

    configs = NVM_CONFIGS()
    if name not in configs:
        raise KeyError(f"unknown NVM config {name!r} (known: {sorted(configs)})")
    return configs[name]


def _add_run_description(parser: argparse.ArgumentParser) -> None:
    """The spec-shaped options shared by trace/metrics/sweep."""
    parser.add_argument(
        "workload",
        help="workload name (see repro.workloads); comma-separate for sweeps",
    )
    parser.add_argument("--policy", default="tahoe", help="policy name (default: tahoe)")
    parser.add_argument(
        "--nvm", default="bw-1/8", metavar="CONFIG",
        help="NVM configuration name (default: bw-1/8)",
    )
    parser.add_argument(
        "--dram-mib", type=float, default=None, metavar="MIB",
        help="DRAM capacity in MiB (default: the suite default)",
    )
    parser.add_argument("--workers", type=int, default=8, help="simulated workers")
    parser.add_argument("--scheduler", default="fifo", help="ready-task ordering policy")
    parser.add_argument("--full", action="store_true", help="use full problem sizes")
    parser.add_argument(
        "--faults", default=None, metavar="PRESET|JSON",
        help="fault plan: a preset name or inline JSON",
    )


def _spec_from_args(args: argparse.Namespace, workload: str, telemetry=None):
    from repro.experiments.spec import RunSpec
    from repro.memory.presets import DEFAULT_DRAM_CAPACITY
    from repro.util.units import MIB

    dram_capacity = (
        int(args.dram_mib * MIB) if args.dram_mib is not None else DEFAULT_DRAM_CAPACITY
    )
    return RunSpec(
        workload=workload,
        policy=args.policy,
        nvm=_nvm_device(args.nvm),
        dram_capacity=dram_capacity,
        n_workers=args.workers,
        fast=not args.full,
        seed=args.seed,
        scheduler=args.scheduler,
        faults=args.faults,
        telemetry=telemetry,
    )


def _parse_prune_spec(spec: str) -> tuple[int | None, float | None]:
    """Parse ``--cache-prune`` specs like ``entries=500``, ``age=30d`` or
    ``entries=500,age=12h`` (bare numbers mean entries)."""
    max_entries: int | None = None
    max_age_s: float | None = None
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if not value:
            key, value = "entries", key
        key, value = key.strip(), value.strip()
        if key in ("entries", "max_entries"):
            max_entries = int(value)
        elif key in ("age", "max_age"):
            unit = 1.0
            if value and value[-1].lower() in _AGE_UNITS:
                unit = _AGE_UNITS[value[-1].lower()]
                value = value[:-1]
            max_age_s = float(value) * unit
        else:
            raise ValueError(
                f"bad --cache-prune component {part!r} "
                "(use entries=N and/or age=<N[s|m|h|d]>)"
            )
    return max_entries, max_age_s


# ----------------------------------------------------------------------
# run (default verb)
# ----------------------------------------------------------------------
def _run_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments run",
        description="Regenerate the paper's tables and figures on the simulator.",
        epilog=_experiments_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[_common_parser(("table",), "table")],
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (see below) or 'all'",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use full problem sizes (default: fast sizes)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache ($REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print result-cache hit/miss statistics after the run",
    )
    parser.add_argument(
        "--cache-prune", metavar="SPEC",
        help="evict stale cache entries first: entries=N and/or age=N[s|m|h|d] "
        "(comma-separated, e.g. entries=500,age=30d)",
    )
    args = parser.parse_args(argv)
    _apply_common(args)
    if args.no_cache:
        set_cache_enabled(False)

    if args.cache_prune:
        try:
            max_entries, max_age_s = _parse_prune_spec(args.cache_prune)
        except ValueError as exc:
            parser.error(str(exc))
        cache = get_cache()
        if cache is None:
            print("cache disabled; nothing to prune")
        else:
            removed = cache.prune(max_entries=max_entries, max_age_s=max_age_s)
            print(f"pruned {removed} cache entries ({cache.entries()} remain)")

    if not args.experiments:
        if args.cache_prune or args.cache_stats:
            if args.cache_stats:
                cache = get_cache()
                print(cache.describe() if cache is not None else "cache disabled")
            return 0
        parser.error("no experiments given (and no --cache-prune to run)")

    keys = sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    rc = 0
    for key in keys:
        try:
            module = get_experiment(key)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            rc = 2
            continue
        start = time.perf_counter()
        result = module.run(fast=not args.full)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"[{key}: {elapsed:.1f}s]\n")

    if args.cache_stats:
        cache = get_cache()
        print(cache.describe() if cache is not None else "cache disabled")
    return rc


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _sweep_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Run a workload x policy x NVM sweep and pivot the results.",
        parents=[_common_parser(("table", "json", "csv"), "table")],
    )
    parser.add_argument("workloads", help="comma-separated workload names")
    parser.add_argument(
        "--policies", default="tahoe", help="comma-separated policy names"
    )
    parser.add_argument(
        "--nvm", default="bw-1/8", metavar="CONFIGS",
        help="comma-separated NVM configuration names",
    )
    parser.add_argument("--workers", type=int, default=8, help="simulated workers")
    parser.add_argument("--full", action="store_true", help="use full problem sizes")
    parser.add_argument("--rows", default="workload", help="pivot row axis")
    parser.add_argument("--cols", default="policy", help="pivot column axis")
    parser.add_argument("--value", default="makespan", help="pivot cell metric")
    args = parser.parse_args(argv)
    _apply_common(args)

    from repro.experiments.sweep import pivot, sweep

    try:
        nvms = [_nvm_device(n.strip()) for n in args.nvm.split(",") if n.strip()]
        records = sweep(
            workload=[w.strip() for w in args.workloads.split(",") if w.strip()],
            policy=[p.strip() for p in args.policies.split(",") if p.strip()],
            nvm=nvms,
            fast=not args.full,
            n_workers=args.workers,
            **({"seed": args.seed} if args.seed is not None else {}),
        )
    except (KeyError, ValueError, RuntimeError) as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.format == "json":
        import json

        print(json.dumps(records, sort_keys=True, indent=2))
    elif args.format == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=sorted(records[0]))
        writer.writeheader()
        writer.writerows(records)
    else:
        print(pivot(records, rows=args.rows, cols=args.cols, value=args.value).render())
    return 0


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _trace_main(argv: list[str]) -> int:
    """The ``trace`` verb: run one spec, export Chrome JSON / ASCII gantt."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments trace",
        description="Execute one described run and export its timeline.",
        parents=[_common_parser(("table", "json"), "table")],
    )
    _add_run_description(parser)
    parser.add_argument(
        "--chrome", metavar="PATH",
        help="write a Chrome Trace Event JSON file (chrome://tracing, Perfetto)",
    )
    parser.add_argument(
        "--gantt", action="store_true",
        help="print an ASCII gantt (default when --chrome is not given)",
    )
    parser.add_argument(
        "--telemetry", nargs="?", const="on", default=None, metavar="JSON",
        help="instrument the run (adds counter tracks to the Chrome trace)",
    )
    args = parser.parse_args(argv)
    _apply_common(args)

    from repro.experiments.runner import execute_spec
    from repro.tasking.tracefmt import ascii_gantt, to_chrome_trace

    try:
        spec = _spec_from_args(args, args.workload, telemetry=args.telemetry)
        trace = execute_spec(spec)
    except (KeyError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.format == "json":
        print(to_chrome_trace(trace))
        return 0

    print(
        f"{spec.label()}: makespan {trace.makespan * 1e3:.3f} ms, "
        f"{len(trace.records)} tasks, {trace.migration_count} migrations "
        f"({trace.migrated_mib:.1f} MiB)"
    )
    if trace.faults is not None:
        f = trace.faults
        print(
            f"faults: {f['injected_copy_failures']} injected, "
            f"{f['copy_retries']} retries, {f['recovered_copies']} recovered, "
            f"{f['failed_migrations']} failed migrations, "
            f"{f['emergency_evictions']} emergency evictions, "
            f"degraded {f['degraded_time_s'] * 1e3:.3f} ms"
        )
    if args.chrome:
        from pathlib import Path

        Path(args.chrome).write_text(to_chrome_trace(trace), encoding="utf-8")
        print(f"wrote Chrome trace to {args.chrome}")
    if args.gantt or not args.chrome:
        print(ascii_gantt(trace))
    return 0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _metrics_main(argv: list[str]) -> int:
    """The ``metrics`` verb: one instrumented run, exported telemetry."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments metrics",
        description="Execute one described run under telemetry and export the "
        "metric series, time-series samples and placement audit log.",
        parents=[_common_parser(("json", "csv", "prom"), "json")],
    )
    _add_run_description(parser)
    parser.add_argument(
        "--telemetry", default="on", metavar="JSON",
        help="telemetry config overrides as JSON (default: on with defaults)",
    )
    parser.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the export here instead of stdout",
    )
    args = parser.parse_args(argv)
    _apply_common(args)

    from repro.experiments.runner import execute_spec
    from repro.metrics.export import export_as, json_digest
    from repro.metrics.telemetry import Telemetry

    try:
        spec = _spec_from_args(args, args.workload, telemetry=args.telemetry)
        if spec.telemetry is None:
            print("telemetry is off; nothing to export", file=sys.stderr)
            return 2
        tel = Telemetry(spec.telemetry)
        trace = execute_spec(spec, telemetry=tel)
    except (KeyError, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2

    export = tel.export()
    text = export_as(tel, args.format)
    print(
        f"{spec.label()}: makespan {trace.makespan * 1e3:.3f} ms, "
        f"{len(export['metrics']['series'])} metric series, "
        f"{len(export['samplers'])} sampler series, "
        f"{export['audit']['n_entries']} audit entries, "
        f"digest {json_digest(export)[:16]}",
        file=sys.stderr,
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.format} export to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _serve_main(argv: list[str]) -> int:
    """The ``serve`` verb: one open-system stream run, summarized."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Run one described workload as an open multi-tenant "
        "service: seeded tenant arrivals, credit-based admission, batch "
        "scheduling rounds (see docs/service.md).",
        parents=[_common_parser(("table", "json"), "table")],
    )
    _add_run_description(parser)
    parser.add_argument(
        "--stream", default="on", metavar="JSON",
        help="stream config overrides as JSON (tenants, horizon_s, "
        "round_interval_s, lanes, seed); default: the standard tenant mix",
    )
    parser.add_argument(
        "--tenant", action="append", default=[], metavar="JSON",
        help="add one tenant (JSON TenantSpec fields, e.g. "
        '\'{"name":"t0","rate_hz":20}\'); repeatable; overrides the '
        "roster in --stream",
    )
    args = parser.parse_args(argv)
    _apply_common(args)

    import json

    from repro.experiments.service import resolve_stream, run_service

    try:
        stream = resolve_stream(args.stream)
        if stream is None:
            print("stream is off; nothing to serve", file=sys.stderr)
            return 2
        if args.tenant:
            from dataclasses import replace as dc_replace

            from repro.workloads.arrivals import tenant_from_json

            stream = dc_replace(
                stream, tenants=tuple(tenant_from_json(t) for t in args.tenant)
            )
        spec = _spec_from_args(args, args.workload)
        spec = spec.replace(stream=stream)
        result = run_service(spec).raise_if_failed()
    except (KeyError, ValueError, OSError, RuntimeError) as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(result.summary, sort_keys=True, indent=2))
        return 0

    from repro.util.tables import Table

    svc = result.summary["service"]
    print(
        f"{spec.label()}: {int(svc['jobs_submitted'])} jobs over "
        f"{svc['horizon_s'] * 1e3:.1f} ms virtual, "
        f"{int(svc['jobs_completed'])} completed, "
        f"{int(svc['jobs_rejected'])} rejected "
        f"({100 * svc['reject_rate']:.1f}%), "
        f"{int(svc['rounds'])} rounds"
    )
    table = Table(
        ["tenant", "submitted", "admitted", "rejected", "p50 slowdown",
         "p99 slowdown", "p99 response (ms)", "credit floor (MiB)"],
        title="Per-tenant service quality",
        float_format="{:.2f}",
    )
    for name, t in sorted(result.summary["tenants"].items()):
        table.add_row(
            [
                name,
                int(t["submitted"]),
                int(t["admitted"]),
                int(t["rejected"]),
                t["p50_slowdown"],
                t["p99_slowdown"],
                t["p99_response_s"] * 1e3,
                t["credit_floor_bytes"] / (1024 * 1024),
            ]
        )
    print(table.render())
    print(f"event log: {result.summary['n_events']} events, "
          f"digest {result.summary['event_log_digest'][:16]}")
    return 0


# ----------------------------------------------------------------------
# serve-api
# ----------------------------------------------------------------------
def _serve_api_main(argv: list[str]) -> int:
    """The ``serve-api`` verb: the long-lived digital-twin HTTP service."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve-api",
        description="Run the digital-twin HTTP API: POST RunSpec documents to "
        "/v1/runs (deduplicated against the result cache), stream progress "
        "from /v1/runs/{key}/events, ask what-if questions via /v1/whatif, "
        "scrape /metrics (see docs/server.md).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8077,
        help="TCP port; 0 binds an ephemeral port and prints it (default: 8077)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent simulations (default: 2)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result-cache directory (overrides $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the on-disk result cache (dedup table still applies)",
    )
    args = parser.parse_args(argv)
    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir

    import asyncio

    from repro.server import ServerConfig, serve

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=False if args.no_cache else None,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        pass
    return 0


# ----------------------------------------------------------------------
_VERBS = {
    "run": _run_main,
    "sweep": _sweep_main,
    "trace": _trace_main,
    "metrics": _metrics_main,
    "serve": _serve_main,
    "serve-api": _serve_api_main,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _VERBS:
        return _VERBS[argv[0]](argv[1:])
    # Default verb: run (bare experiment ids keep working).
    return _run_main(argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
