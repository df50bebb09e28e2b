"""E13 — Multi-tenant service quality vs offered load (open system).

Run the stream driver over a two-tenant mix (steady Poisson interactive
tenant + bursty batch tenant) submitting the same task graph, and sweep
the offered load from well below capacity to past saturation.  Load is
denominated in the *baseline's* service capacity: a load factor of L
means the combined arrival rate is L × lanes / S_ref jobs per second,
where S_ref is the NVM-only closed-DAG makespan of the job — so L = 1 is
exactly the rate the baseline can sustain, at any problem size, and both
policies face the same arrival schedule.  Credits and the horizon scale
with the measured job size the same way.  At each load point, measure
per-tenant p50/p99 slowdown (response time over isolated closed-DAG
makespan), admission reject rate, and batch-round occupancy, for the
data manager and the NVM-only baseline on the same machine.

Expected shape: at low load every job runs effectively isolated
(slowdown ~1, no rejects).  As offered load approaches the lane
capacity, queueing inflates the p99 tail first (the p50 stays flat far
longer — the classic open-system signature), and past saturation the
admission controller sheds load instead of growing the backlog without
bound, so the reject rate climbs while the slowdown of *admitted* jobs
stays bounded.  Because the data manager's jobs are individually faster
than NVM-only's, the same arrival rate is a lower utilization for it:
its saturation knee sits at a measurably higher offered load — placement
quality buys service capacity, not just single-run speed.
"""

from __future__ import annotations

from repro.experiments.parallel import run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import RunSpec
from repro.experiments.service import StreamSpec, _tenant_demand_bytes
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.tables import Table
from repro.util.units import MIB
from repro.workloads.arrivals import TenantSpec

EXPERIMENT = "E13"
TITLE = "Multi-tenant service quality vs offered load"

#: Offered-load factors in units of the baseline's service capacity
#: (L = 1 is the rate NVM-only can just sustain); the top points sit
#: past saturation for both policies.
LOAD_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
POLICIES = ("tahoe", "nvm-only")
REF_POLICY = "nvm-only"  # whose closed-DAG makespan defines L = 1
WORKLOAD = "heat"
LANES = 2
#: Share of the combined arrival rate each tenant offers.
MIX = {"steady": 2 / 3, "bursty": 1 / 3}
#: Credit lines, in units of one job's working set: how many jobs a
#: tenant may hold admitted (queued + running) before shedding load.
CREDIT_JOBS = {"steady": 4, "bursty": 3}
#: Expected submissions per unit load factor (sizes the horizon).
JOBS_PER_UNIT_LOAD = 60
SEED = 20180101  # arrival-process seed (stable across runs)


def _stream(load: float, service_ref_s: float, demand_bytes: int) -> StreamSpec:
    """The tenant mix at ``load``, scaled to the measured job size."""
    rate_total = load * LANES / service_ref_s
    return StreamSpec(
        tenants=(
            TenantSpec(
                name="steady",
                rate_hz=MIX["steady"] * rate_total,
                arrival="poisson",
                credit_mib=CREDIT_JOBS["steady"] * demand_bytes / MIB,
            ),
            TenantSpec(
                name="bursty",
                rate_hz=MIX["bursty"] * rate_total,
                arrival="burst",
                burst_cycle_s=service_ref_s,
                credit_mib=CREDIT_JOBS["bursty"] * demand_bytes / MIB,
            ),
        ),
        horizon_s=JOBS_PER_UNIT_LOAD * service_ref_s / LANES,
        round_interval_s=service_ref_s / 8.0,
        lanes=LANES,
        seed=SEED,
    )


def run(
    fast: bool = True,
    workloads: tuple[str, ...] = (WORKLOAD,),
    workers: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT, TITLE)
    nvm = nvm_bandwidth_scaled(0.5)
    workload = workloads[0]

    # Probe the baseline: its closed-DAG makespan defines the L = 1 rate
    # and the per-job working set sizes the credit lines — both scale
    # with the problem size, so the sweep shape is size-independent.
    ref_spec = RunSpec(workload, REF_POLICY, nvm, fast=fast)
    service_ref_s = run_many([ref_spec], workers=workers, strict=True)[0].makespan
    demand_bytes = _tenant_demand_bytes(ref_spec, TenantSpec(name="probe"))

    specs: dict[tuple[str, float], RunSpec] = {}
    for policy in POLICIES:
        for load in LOAD_FACTORS:
            specs[(policy, load)] = RunSpec(
                workload,
                policy,
                nvm,
                fast=fast,
                stream=_stream(load, service_ref_s, demand_bytes),
            )
    # Stream runs share their closed-DAG sub-runs through the cache, so
    # the whole sweep simulates each (workload, policy) graph once.
    res = {
        r.spec: r
        for r in run_many(list(specs.values()), workers=workers, strict=True)
    }

    quality = Table(
        ["policy", "load", "submitted", "rejected", "reject%"]
        + [f"{t}.p50" for t in sorted(MIX)]
        + [f"{t}.p99" for t in sorted(MIX)],
        title="Per-tenant slowdown and admission shedding vs offered load",
        float_format="{:.2f}",
    )
    for policy in POLICIES:
        for load in LOAD_FACTORS:
            summary = res[specs[(policy, load)]].summary
            svc = summary["service"]
            tenants = summary["tenants"]
            row: list = [
                policy,
                load,
                int(svc["jobs_submitted"]),
                int(svc["jobs_rejected"]),
                100.0 * svc["reject_rate"],
            ]
            for t in sorted(MIX):
                row.append(tenants[t]["p50_slowdown"])
            for t in sorted(MIX):
                row.append(tenants[t]["p99_slowdown"])
            quality.add_row(row)
            result.metrics[f"{policy}/x{load:g}/reject_rate"] = svc["reject_rate"]
            result.metrics[f"{policy}/x{load:g}/p99_slowdown"] = svc["p99_slowdown"]
            for t in sorted(MIX):
                result.metrics[f"{policy}/x{load:g}/{t}/p99_slowdown"] = tenants[t][
                    "p99_slowdown"
                ]

    rounds = Table(
        ["policy", "load", "rounds", "jobs/round", "p99 round span (ms)"],
        title="Batch scheduling round occupancy",
        float_format="{:.2f}",
    )
    for policy in POLICIES:
        for load in LOAD_FACTORS:
            svc = res[specs[(policy, load)]].summary["service"]
            rounds.add_row(
                [
                    policy,
                    load,
                    int(svc["rounds"]),
                    svc["mean_jobs_per_round"],
                    svc["p99_round_span_s"] * 1e3,
                ]
            )

    # Saturation knee: the lowest load factor at which the service sheds
    # load.  A higher knee means the policy buys real service capacity.
    for policy in POLICIES:
        knee = next(
            (
                load
                for load in LOAD_FACTORS
                if res[specs[(policy, load)]].summary["service"]["reject_rate"] > 0
            ),
            float("inf"),
        )
        result.metrics[f"{policy}/saturation_knee"] = knee

    result.tables = [quality, rounds]
    result.notes = (
        "Expected: slowdown ~1 and no rejects at low load; the p99 tail\n"
        "inflates before the p50 as load approaches lane capacity; past\n"
        "saturation the admission controller sheds load (reject rate climbs)\n"
        "while admitted jobs' slowdown stays bounded.  The data manager's\n"
        "faster jobs push its saturation knee to a higher offered load than\n"
        "NVM-only on the same machine."
    )
    return result
