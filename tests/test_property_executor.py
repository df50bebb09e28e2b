"""Property-based executor invariants over random task programs.

The second half of this module is the differential harness for the
structure-of-arrays executor rewrite: every random program is run through
both the production :class:`Executor` and the object-mode
:class:`tests.reference_executor.ReferenceExecutor` (the pre-rewrite
dispatch loop, kept verbatim), and the two traces must agree on every
``TaskRecord`` field bit-for-bit — with and without schedulers,
migrations, Memory Mode, and fault injection.  A last property pins
that turning telemetry on leaves every record untouched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DRAMOnlyPolicy, NVMOnlyPolicy
from repro.baselines.policies import BasePolicy
from repro.core.manager import DataManagerPolicy
from repro.faults import FaultInjector, resolve_plan
from repro.memory.cache import DRAMCacheModel
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.metrics import Telemetry, TelemetryConfig
from repro.tasking.access import AccessMode, ObjectAccess, PATTERNS
from repro.tasking.dataobj import DataObject
from repro.tasking.executor import Executor, ExecutorConfig
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.helpers import predecessors, reads, residency, writes
from tests.reference_executor import ReferenceExecutor


@st.composite
def random_program(draw):
    """A random but well-formed task program over a shared object pool."""
    n_objects = draw(st.integers(2, 6))
    objects = [
        DataObject(name=f"o{i}", size_bytes=draw(st.integers(1, 16)) * MIB)
        for i in range(n_objects)
    ]
    pattern_names = sorted(PATTERNS)
    graph = TaskGraph()
    n_tasks = draw(st.integers(1, 25))
    for i in range(n_tasks):
        k = draw(st.integers(1, min(3, n_objects)))
        idxs = draw(
            st.lists(
                st.integers(0, n_objects - 1), min_size=k, max_size=k, unique=True
            )
        )
        accesses = {}
        for oi in idxs:
            mode = draw(st.sampled_from(list(AccessMode)))
            touched = draw(st.integers(100, 200_000))
            accesses[objects[oi]] = ObjectAccess(
                mode,
                loads=touched if reads(mode) else 0,
                stores=touched // 2 if writes(mode) else 0,
                pattern=PATTERNS[draw(st.sampled_from(pattern_names))],
            )
        graph.add(
            Task(
                name=f"t{i}",
                type_name=f"k{i % 4}",
                accesses=accesses,
                compute_time=draw(st.floats(0, 1e-3)),
                iteration=i // 4,
            )
        )
    return graph


@settings(max_examples=40, deadline=None)
@given(graph=random_program(), workers=st.integers(1, 8))
def test_execution_invariants_nvm_only(graph, workers):
    hms = HeterogeneousMemorySystem(dram(), nvm_bandwidth_scaled(0.5))
    tr = Executor(hms, ExecutorConfig(n_workers=workers)).run(graph, NVMOnlyPolicy())
    tr.validate()
    assert len(tr.records) == len(graph.tasks)
    # dependence order respected in time
    finish = {r.task.tid: r.finish for r in tr.records}
    start = {r.task.tid: r.start for r in tr.records}
    for t in graph.tasks:
        for p in predecessors(graph, t):
            assert start[t.tid] >= finish[p.tid] - 1e-12
    hms.check_invariants()


@settings(max_examples=20, deadline=None)
@given(graph=random_program())
def test_dram_only_never_slower_than_nvm_only(graph):
    """DRAM strictly dominates this NVM config, so a DRAM-only run can
    never lose to an NVM-only run of the same program."""
    nvm = nvm_bandwidth_scaled(0.5)
    big = dram(max(2 * graph.total_object_bytes(), 64 * MIB))
    t_dram = Executor(
        HeterogeneousMemorySystem(big, nvm), ExecutorConfig(n_workers=4)
    ).run(graph, DRAMOnlyPolicy())
    t_nvm = Executor(
        HeterogeneousMemorySystem(dram(), nvm), ExecutorConfig(n_workers=4)
    ).run(graph, NVMOnlyPolicy())
    assert t_dram.makespan <= t_nvm.makespan + 1e-12


@settings(max_examples=15, deadline=None)
@given(graph=random_program())
def test_manager_respects_machine_invariants(graph):
    """The data manager may win or lose on adversarial random programs,
    but it must never corrupt machine state or break execution order."""
    hms = HeterogeneousMemorySystem(dram(int(16 * MIB)), nvm_bandwidth_scaled(0.5))
    tr = Executor(hms, ExecutorConfig(n_workers=4)).run(graph, DataManagerPolicy())
    tr.validate()
    hms.check_invariants()
    # every object is placed exactly once on exactly one device
    assert set(residency(hms)) == {o.uid for o in graph.objects}


# ----------------------------------------------------------------------
# SoA executor vs. object-mode reference: byte-identical traces.
# ----------------------------------------------------------------------


class _PromotingPolicy(BasePolicy):
    """Promotes every object on its first read to exercise migrations."""

    name = "promoting"

    def after_task(self, task, record, ctx):
        for obj, acc in task.accesses.items():
            if reads(acc.mode) and not ctx.hms.in_dram(obj):
                if ctx.hms.dram_free_bytes() >= obj.size_bytes:
                    ctx.request_migration(obj, ctx.dram, record.finish)
        return 0.0


def _record_tuple(r):
    return (
        r.task.tid,
        r.worker,
        r.start,
        r.finish,
        r.compute_time,
        r.memory_time,
        r.overhead_time,
        r.stall_time,
        dict(r.residency),
    )


def _assert_traces_identical(got, want):
    assert len(got.records) == len(want.records)
    for g, w in zip(got.records, want.records):
        assert _record_tuple(g) == _record_tuple(w)
    assert got.makespan == want.makespan
    assert got.summary() == want.summary()
    assert getattr(got, "faults", None) == getattr(want, "faults", None)


def _run_pair(graph, make_policy, workers, *, scheduler=None, faults=None,
              dram_bytes=None, dram_cache=None):
    cfg = ExecutorConfig(
        n_workers=workers, scheduler=scheduler, dram_cache=dram_cache
    )
    nvm = nvm_bandwidth_scaled(0.5)
    traces = []
    for cls in (Executor, ReferenceExecutor):
        d = dram(dram_bytes) if dram_bytes is not None else dram()
        hms = HeterogeneousMemorySystem(d, nvm)
        injector = None
        if faults is not None:
            injector = FaultInjector.for_hms(resolve_plan(faults), hms)
        traces.append(cls(hms, cfg, injector=injector).run(graph, make_policy()))
    return traces


@settings(max_examples=25, deadline=None)
@given(graph=random_program(), workers=st.integers(1, 8))
def test_soa_matches_reference_nvm_only(graph, workers):
    got, want = _run_pair(graph, NVMOnlyPolicy, workers)
    _assert_traces_identical(got, want)


@settings(max_examples=15, deadline=None)
@given(
    graph=random_program(),
    workers=st.integers(1, 6),
    scheduler=st.sampled_from(["fifo", "critical-path", "memory-aware"]),
)
def test_soa_matches_reference_under_schedulers(graph, workers, scheduler):
    got, want = _run_pair(graph, DataManagerPolicy, workers, scheduler=scheduler)
    _assert_traces_identical(got, want)


@settings(max_examples=15, deadline=None)
@given(graph=random_program(), workers=st.integers(1, 6))
def test_soa_matches_reference_with_migrations(graph, workers):
    got, want = _run_pair(
        graph, _PromotingPolicy, workers, dram_bytes=int(16 * MIB)
    )
    _assert_traces_identical(got, want)


@settings(max_examples=15, deadline=None)
@given(
    graph=random_program(),
    workers=st.integers(1, 6),
    faults=st.sampled_from(["flaky-copies", "brownout", "moderate"]),
)
def test_soa_matches_reference_under_faults(graph, workers, faults):
    got, want = _run_pair(graph, DataManagerPolicy, workers, faults=faults)
    _assert_traces_identical(got, want)


@settings(max_examples=20, deadline=None)
@given(
    graph=random_program(),
    workers=st.integers(1, 6),
    cache_mib=st.integers(1, 64),
    faults=st.sampled_from([None, "brownout", "moderate"]),
)
def test_soa_matches_reference_memory_mode(graph, workers, cache_mib, faults):
    cache = DRAMCacheModel(dram_capacity_bytes=cache_mib * MIB)
    got, want = _run_pair(
        graph, NVMOnlyPolicy, workers, faults=faults, dram_cache=cache
    )
    _assert_traces_identical(got, want)


@settings(max_examples=15, deadline=None)
@given(
    graph=random_program(),
    workers=st.integers(1, 6),
    make_policy=st.sampled_from([NVMOnlyPolicy, DataManagerPolicy]),
)
def test_telemetry_leaves_trace_identical(graph, workers, make_policy):
    traces = []
    for telemetry in (None, Telemetry(TelemetryConfig())):
        hms = HeterogeneousMemorySystem(
            dram(int(16 * MIB)), nvm_bandwidth_scaled(0.5)
        )
        executor = Executor(
            hms, ExecutorConfig(n_workers=workers), telemetry=telemetry
        )
        traces.append(executor.run(graph, make_policy()))
    bare, instrumented = traces
    assert instrumented.telemetry is not None
    assert [_record_tuple(r) for r in instrumented.records] == [
        _record_tuple(r) for r in bare.records
    ]
    assert instrumented.makespan == bare.makespan
    assert instrumented.migrations.records == bare.migrations.records
