"""Open-system stream mode: determinism, admission credits, drain
equivalence, and the RunSpec ``stream`` field's cache-key discipline."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.service import (
    StreamSpec,
    _plain_json,
    resolve_stream,
    run_service,
)
from repro.experiments.spec import RunSpec, canonical_json
from repro.memory.presets import nvm_bandwidth_scaled
from repro.tasking.stream import (
    AdmissionController,
    JobRequest,
    StreamDriver,
)
from repro.util.units import MIB
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    TenantSpec,
    generate_arrivals,
)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def tenant_specs(names=("a", "b", "c")):
    return st.builds(
        TenantSpec,
        name=st.sampled_from(names),
        rate_hz=st.floats(min_value=0.0, max_value=200.0),
        arrival=st.sampled_from(ARRIVAL_KINDS),
        credit_mib=st.floats(min_value=1.0, max_value=1024.0),
        burst_duty=st.floats(min_value=0.05, max_value=1.0),
        burst_factor=st.floats(min_value=1.0, max_value=8.0),
    )


def tenant_rosters():
    return st.lists(
        tenant_specs(), min_size=1, max_size=3, unique_by=lambda t: t.name
    )


def job_batches():
    """Synthetic job streams with demands around the credit scale."""
    job = st.tuples(
        st.floats(min_value=0.0, max_value=1.0),  # submit_s
        st.sampled_from(("a", "b")),  # tenant
        st.integers(min_value=1, max_value=600),  # demand MiB
        st.floats(min_value=0.0, max_value=0.05),  # service_s
    )
    return st.lists(job, min_size=0, max_size=40)


def _drive(batch, credits_mib=(256, 512), round_interval_s=0.01, lanes=2):
    jobs = [
        JobRequest(i, tenant, submit, demand * MIB)
        for i, (submit, tenant, demand, _) in enumerate(batch)
    ]
    service = {i: s for i, (_, _, _, s) in enumerate(batch)}
    admission = AdmissionController(
        {"a": credits_mib[0] * MIB, "b": credits_mib[1] * MIB}
    )
    driver = StreamDriver(
        jobs,
        admission,
        job_runner=lambda job: service[job.job_id],
        round_interval_s=round_interval_s,
        lanes=lanes,
    )
    return driver.run()


# ----------------------------------------------------------------------
# Arrival generation
# ----------------------------------------------------------------------
class TestArrivals:
    @settings(max_examples=25, deadline=None)
    @given(tenants=tenant_rosters(), seed=st.integers(0, 1000))
    def test_same_seed_same_schedule(self, tenants, seed):
        a = generate_arrivals(tenants, horizon_s=0.5, seed=seed)
        b = generate_arrivals(tenants, horizon_s=0.5, seed=seed)
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(tenants=tenant_rosters(), seed=st.integers(0, 1000))
    def test_schedule_sorted_dense_and_bounded(self, tenants, seed):
        arrivals = generate_arrivals(tenants, horizon_s=0.5, seed=seed)
        assert [a.job_id for a in arrivals] == list(range(len(arrivals)))
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 <= t < 0.5 for t in times)

    def test_tenant_streams_independent_of_roster(self):
        solo = TenantSpec(name="x", rate_hz=50.0)
        other = TenantSpec(name="y", rate_hz=80.0)
        alone = generate_arrivals([solo], horizon_s=0.3, seed=9)
        mixed = generate_arrivals([other, solo], horizon_s=0.3, seed=9)
        assert [a.time for a in alone] == [
            a.time for a in mixed if a.tenant == "x"
        ]

    def test_uniform_rate_and_spacing_exact(self):
        t = TenantSpec(name="u", rate_hz=10.0, arrival="uniform")
        arrivals = generate_arrivals([t], horizon_s=1.0, seed=0)
        assert len(arrivals) == 10
        gaps = {
            round(b.time - a.time, 12)
            for a, b in zip(arrivals, arrivals[1:])
        }
        assert gaps == {0.1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="arrival kind"):
            TenantSpec(name="bad", arrival="lognormal")


# ----------------------------------------------------------------------
# Stream driver properties
# ----------------------------------------------------------------------
class TestStreamDriver:
    @settings(max_examples=40, deadline=None)
    @given(batch=job_batches())
    def test_credits_never_negative(self, batch):
        result = _drive(batch)
        for tenant, floor in result.credit_floor.items():
            assert floor >= 0, (tenant, floor)

    @settings(max_examples=40, deadline=None)
    @given(batch=job_batches())
    def test_conservation_and_ordering(self, batch):
        result = _drive(batch)
        assert len(result.jobs) == len(batch)
        done = [j for j in result.jobs if not j.rejected]
        assert len(done) + sum(result.rejected.values()) == len(batch)
        assert sum(result.admitted.values()) == len(done)
        for j in done:
            assert j.finish_s >= j.start_s >= j.submit_s
            # slowdown is floored at 1, so check the bound it rests on.
            assert j.finish_s == j.start_s + j.service_s
            assert j.slowdown >= 1.0 or j.service_s == 0.0

    @settings(max_examples=25, deadline=None)
    @given(batch=job_batches())
    def test_lanes_never_overlap(self, batch):
        result = _drive(batch, lanes=2)
        by_lane = {}
        for j in result.jobs:
            if not j.rejected:
                by_lane.setdefault(j.lane, []).append(j)
        for jobs in by_lane.values():
            # Tie-break equal starts by finish: a zero-duration job may
            # legitimately share its instant with the next job's start.
            jobs.sort(key=lambda j: (j.start_s, j.finish_s))
            for a, b in zip(jobs, jobs[1:]):
                assert b.start_s >= a.finish_s - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(batch=job_batches())
    def test_event_log_reproducible(self, batch):
        a = _drive(batch)
        b = _drive(batch)
        assert a.event_log == b.event_log
        assert a.jobs == b.jobs

    @pytest.mark.parametrize(
        "batch",
        [
            [(0.02, "a", 1, 0.014810549294355683)],
            [(0.15, "a", 1, 0.03538498845011801)],
        ],
    )
    def test_immediate_start_slowdown_not_below_one(self, batch):
        # (submit + service) - submit rounds below service for these
        # inputs; the job starts on submission, so its slowdown is 1.
        (job,) = _drive(batch).jobs
        assert job.start_s == job.submit_s
        assert job.response_s < job.service_s
        assert job.slowdown == 1.0

    def test_overdraft_rejected_not_queued(self):
        batch = [(0.0, "a", 600, 0.01)]  # demand 600 MiB > 256 MiB credit
        result = _drive(batch)
        assert result.jobs[0].rejected
        assert result.rejected["a"] == 1
        assert result.credit_floor["a"] == 256 * MIB

    def test_release_overflow_is_an_error(self):
        adm = AdmissionController({"a": 64 * MIB})
        assert adm.try_admit("a", 64 * MIB)
        adm.release("a", 64 * MIB)
        with pytest.raises(RuntimeError, match="credit overflow"):
            adm.release("a", 1)


# ----------------------------------------------------------------------
# Full service runs (run_service over real closed-DAG sub-runs)
# ----------------------------------------------------------------------
def _service_spec(**stream_overrides):
    stream = {"horizon_s": 0.25, "seed": 13, **stream_overrides}
    return RunSpec(
        workload="heat",
        policy="tahoe",
        nvm=nvm_bandwidth_scaled(0.5),
        stream=stream,
    )


class TestRunService:
    @pytest.fixture(autouse=True)
    def _no_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")

    def test_same_seed_byte_identical(self):
        a = run_service(_service_spec())
        b = run_service(_service_spec())
        assert canonical_json(a.summary) == canonical_json(b.summary)

    def test_different_seed_different_schedule(self):
        a = run_service(_service_spec(seed=13))
        b = run_service(_service_spec(seed=14))
        assert (
            a.summary["event_log_digest"] != b.summary["event_log_digest"]
        )

    def test_summaries_json_round_trip(self):
        r = run_service(_service_spec())
        assert r.summary == json.loads(json.dumps(r.summary))
        svc = r.summary["service"]
        assert svc["jobs_completed"] + svc["jobs_rejected"] == svc["jobs_submitted"]

    def test_drain_matches_closed_dag_executor(self):
        """Arrival rate -> 0: every job runs isolated, so its service
        time is exactly the closed-DAG makespan of the same graph and
        its wait is bounded by one round interval."""
        round_s = 0.005
        spec = _service_spec(
            tenants=[
                {
                    "name": "drain",
                    "rate_hz": 2.0,  # widely spaced vs the job length
                    "arrival": "uniform",
                    "credit_mib": 4096.0,
                }
            ],
            horizon_s=1.0,
            round_interval_s=round_s,
            lanes=1,
        )
        from repro.experiments.runner import run_and_summarize

        closed = run_and_summarize(spec.replace(stream=None))
        result = run_service(spec)
        tenant = result.summary["tenants"]["drain"]
        assert tenant["rejected"] == 0
        assert result.summary["isolated_makespan_s"]["drain"] == pytest.approx(
            closed.makespan
        )
        assert tenant["mean_service_s"] == pytest.approx(closed.makespan)
        # Response = wait-for-next-round + service; never more than one
        # round of queueing when the system is idle.
        assert tenant["p99_response_s"] <= closed.makespan + round_s + 1e-9

    def test_execute_spec_refuses_stream_specs(self):
        from repro.experiments.runner import execute_spec

        with pytest.raises(ValueError, match="run_service"):
            execute_spec(_service_spec())


_leaf = (
    st.floats()
    | st.sampled_from([0.0, -0.0])
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.text()
)


@settings(max_examples=200, deadline=None)
@given(
    log=st.lists(
        st.tuples(
            st.floats() | st.sampled_from([0.0, -0.0]),
            st.text(),
            st.integers(min_value=-(2**100), max_value=2**100),
        ),
        max_size=20,
    ),
    summary=st.dictionaries(
        st.text(), _leaf | st.dictionaries(st.text(), _leaf, max_size=4), max_size=6
    ),
)
def test_plain_json_is_canonical_json_byte_for_byte(log, summary):
    """The event-log digest and the summary skip canonical_json's tree
    walk; on their shapes (signed zeros, huge ints, non-ASCII names) the
    text is the same."""
    assert _plain_json(tuple(log)) == canonical_json(list(log))
    assert _plain_json(summary) == canonical_json(summary)


# ----------------------------------------------------------------------
# RunSpec integration: the omit-when-None cache-key discipline
# ----------------------------------------------------------------------
class TestStreamSpecField:
    def test_closed_spec_omits_stream(self):
        spec = RunSpec("heat", "tahoe", nvm_bandwidth_scaled(0.5))
        assert spec.stream is None
        assert "stream" not in spec.to_dict()

    def test_stream_changes_cache_key(self):
        closed = RunSpec("heat", "tahoe", nvm_bandwidth_scaled(0.5))
        streamed = closed.replace(stream={"horizon_s": 0.25})
        assert streamed.cache_key() != closed.cache_key()
        assert streamed.replace(stream=None).cache_key() == closed.cache_key()

    def test_round_trips_through_dict(self):
        spec = _service_spec()
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.cache_key() == spec.cache_key()

    def test_resolve_stream_forms(self):
        assert resolve_stream(None) is None
        assert resolve_stream(False) is None
        assert resolve_stream("off") is None
        assert isinstance(resolve_stream(True), StreamSpec)
        assert isinstance(resolve_stream("on"), StreamSpec)
        got = resolve_stream('{"horizon_s": 0.125, "lanes": 3}')
        assert got.horizon_s == 0.125 and got.lanes == 3
        with pytest.raises(ValueError, match="unknown stream spec fields"):
            resolve_stream({"bogus": 1})
        with pytest.raises(TypeError):
            resolve_stream(42)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            StreamSpec(tenants=({"name": "t"}, {"name": "t"}))

    def test_label_mentions_stream(self):
        assert "stream(" in _service_spec().label()
