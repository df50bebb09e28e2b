"""Differential suite for the columnar stream plane.

The stream driver (:class:`repro.tasking.stream.StreamDriver`) merges its
sorted submits, its one pending round and a heap of job ends in one
loop, and the arrival sampler
(:func:`repro.workloads.arrivals.generate_arrivals`) draws Poisson gaps
in vector blocks.  Each must be *bitwise* identical to the single-heap
loop and the scalar sampler kept in ``tests/reference_stream.py``.
Hypothesis drives both over job batches built to tie — submits on the
round grid, service times that end exactly on a later round instant,
zero-length jobs — with 1–8 lanes and credit lines that reject, and
over tenant rosters of every arrival kind, zero-rate tenants included;
every float is compared by its IEEE-754 bytes.
"""

from __future__ import annotations

import struct
from itertools import accumulate

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tasking.stream import AdmissionController, StreamDriver
from repro.util.rng import spawn_rng
from repro.util.units import MIB
from repro.workloads.arrivals import ARRIVAL_KINDS, TenantSpec, generate_arrivals

from tests.reference_stream import JobRequest, StreamDriverRef, generate_arrivals_ref

TENANTS = ("a", "b", "c")


def _bits(values) -> list:
    """Floats as their IEEE-754 bytes (so -0.0 != 0.0); others as is."""
    return [
        (type(v).__name__, struct.pack("<d", v) if isinstance(v, float) else v)
        for v in values
    ]


@st.composite
def stream_cases(draw):
    """(jobs, credits MiB, round interval, lanes); each job is
    (submit_s, tenant, demand MiB, service_s)."""
    interval = draw(
        st.sampled_from([0.1, 0.01, 0.003, 0.25])
        | st.floats(min_value=1e-3, max_value=0.2)
    )
    lanes = draw(st.integers(min_value=1, max_value=8))
    # Round instants as the driver reaches them: accumulated, not k * dt.
    grid = list(accumulate([0.0] + [interval] * 40))
    on_grid = st.sampled_from(grid)
    submit = on_grid | st.floats(min_value=0.0, max_value=grid[-1] / 2)
    # A whole number of intervals ends a job that starts on a round
    # instant exactly on a later one; zero ends it at its own round.
    service = (
        st.sampled_from([0.0, interval, 2 * interval, 3 * interval])
        | st.floats(min_value=0.0, max_value=5 * interval)
    )
    job = st.tuples(
        submit,
        st.sampled_from(TENANTS),
        st.integers(min_value=1, max_value=300),
        service,
    )
    jobs = draw(st.lists(job, max_size=60))
    credits = draw(st.tuples(*[st.sampled_from([64, 256, 1024])] * len(TENANTS)))
    return jobs, credits, interval, lanes


def _run_both(jobs, credits, interval, lanes):
    limits = {t: c * MIB for t, c in zip(TENANTS, credits)}
    service = [s for *_, s in jobs]
    calls, ref_calls = [], []

    def runner(j):
        calls.append(j)
        return service[j]

    def ref_runner(job):
        ref_calls.append(job.job_id)
        return service[job.job_id]

    got = StreamDriver(
        [s for s, *_ in jobs],
        [t for _, t, *_ in jobs],
        [d * MIB for _, _, d, _ in jobs],
        AdmissionController(limits),
        runner,
        round_interval_s=interval,
        lanes=lanes,
    ).run()
    want = StreamDriverRef(
        [JobRequest(i, t, s, d * MIB) for i, (s, t, d, _) in enumerate(jobs)],
        AdmissionController(limits),
        ref_runner,
        round_interval_s=interval,
        lanes=lanes,
    ).run()
    return got, want, calls, ref_calls


def _assert_same(got, want) -> None:
    assert [r.job_id for r in want.jobs] == list(range(len(got.job_rejected)))
    columns = {
        "submit": ("submit", "submit_s"),
        "tenant": ("tenant", "tenant"),
        "job_rejected": ("job_rejected", "rejected"),
        "start": ("start", "start_s"),
        "finish": ("finish", "finish_s"),
        "service": ("service", "service_s"),
        "lane": ("lane", "lane"),
        "response": ("response", "response_s"),
        "slowdown": ("slowdown", "slowdown"),
    }
    for name, (col, attr) in columns.items():
        assert _bits(getattr(got, col)) == _bits(
            [getattr(r, attr) for r in want.jobs]
        ), name
    assert all(r.backlog == 0 for r in want.rounds)
    assert [r.index for r in want.rounds] == list(range(len(got.scheduled)))
    assert _bits(got.scheduled) == _bits([r.scheduled for r in want.rounds])
    assert _bits(got.span) == _bits([r.span_s for r in want.rounds])
    assert len(got.event_log) == len(want.event_log)
    for mine, theirs in zip(got.event_log, want.event_log):
        assert _bits(mine) == _bits(theirs), (mine, theirs)
    assert got.admitted == want.admitted
    assert got.rejected == want.rejected
    assert got.credit_floor == want.credit_floor
    assert _bits([got.horizon_s]) == _bits([want.horizon_s])


@settings(max_examples=300, deadline=None)
@given(case=stream_cases())
@example(case=([(0.0, "a", 1, 0.1)] * 3 + [(0.1, "b", 1, 0.1)], (64, 64, 64), 0.1, 2))
@example(case=([(0.0, "a", 100, 0.0), (0.0, "a", 100, 0.0)], (64, 256, 64), 0.01, 8))
def test_driver_matches_reference(case) -> None:
    got, want, calls, ref_calls = _run_both(*case)
    _assert_same(got, want)
    assert calls == ref_calls  # one runner call per admitted job, same order


def test_driver_ties_round_grid_long_drain() -> None:
    """Ninety back-to-back jobs on one lane: their ends fall on round
    instants reached by 300+ accumulated steps, where ``k * dt`` has
    drifted from the running sum; each end ties a submit and a round."""
    dt = 0.01
    grid = list(accumulate([0.0] + [dt] * 100))
    jobs = [(grid[i], TENANTS[i % 3], 1, dt) for i in range(90)]
    got, want, _, _ = _run_both(jobs, (1024, 1024, 1024), dt, 1)
    _assert_same(got, want)
    assert any(t != k * dt for k, (t, kind, _) in enumerate(
        e for e in got.event_log if e[1] == "ROUND"
    ))


def tenant_rosters():
    tenant = st.builds(
        TenantSpec,
        name=st.sampled_from(TENANTS),
        rate_hz=st.sampled_from([0.0, 1.0, 50.0]) | st.floats(min_value=0.0, max_value=3000.0),
        arrival=st.sampled_from(ARRIVAL_KINDS),
        credit_mib=st.just(64.0),
        burst_duty=st.floats(min_value=0.05, max_value=1.0),
        burst_factor=st.floats(min_value=1.0, max_value=8.0),
        burst_cycle_s=st.floats(min_value=1e-3, max_value=0.1),
    )
    return st.lists(tenant, min_size=1, max_size=3, unique_by=lambda t: t.name)


@settings(max_examples=150, deadline=None)
@given(
    tenants=tenant_rosters(),
    horizon_s=st.sampled_from([0.05, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_arrivals_match_reference(tenants, horizon_s, seed) -> None:
    got = generate_arrivals(tenants, horizon_s, seed)
    want = generate_arrivals_ref(tenants, horizon_s, seed)
    assert [a.job_id for a in want] == list(range(len(got.submit_s)))
    assert _bits(got.submit_s) == _bits([a.time for a in want])
    assert got.tenant == [a.tenant for a in want]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(min_value=1e-6, max_value=1e3),
    k=st.integers(min_value=1, max_value=2000),
)
def test_vector_exponential_draws_equal_scalar_draws(seed, scale, k) -> None:
    """A block of ``k`` draws takes the scalar loop's variates, and
    leaves the generator where ``k`` scalar draws leave it."""
    vec, one = spawn_rng(seed, "draws"), spawn_rng(seed, "draws")
    block = vec.exponential(scale, size=k)
    loop = np.array([one.exponential(scale) for _ in range(k)])
    assert block.tobytes() == loop.tobytes()
    assert vec.exponential(scale) == one.exponential(scale)
