"""Task graph: dependence inference, analyses, manual edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tasking.access import AccessMode, ObjectAccess
from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import read_footprint, update_footprint, write_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.task import Task
from repro.util.units import MIB

from tests.helpers import (
    critical_path,
    predecessors,
    reads,
    successors,
    task_depths,
    writes,
)
from tests.reference_graph import DependenceKind, ReferenceGraph, merge_accesses


def mk_obj(name="o", mib=1.0):
    return DataObject(name=name, size_bytes=int(mib * MIB))


def mk_task(name, accesses, type_name=None):
    return Task(name=name, type_name=type_name or name, accesses=accesses)


def build_both(tasks):
    """The production graph and the record-keeping oracle over ``tasks``."""
    g, ref = TaskGraph(), ReferenceGraph()
    for t in tasks:
        g.add(t)
        ref.add(t)
    return g, ref


class TestDependenceInference:
    def test_raw_dependence(self):
        o = mk_obj()
        w = mk_task("w", {o: write_footprint(o.size_bytes)})
        r = mk_task("r", {o: read_footprint(o.size_bytes)})
        g, ref = build_both([w, r])
        assert predecessors(g, r) == [w]
        assert ref.kinds() == {DependenceKind.RAW}

    def test_waw_dependence(self):
        g = TaskGraph()
        o = mk_obj()
        w1 = g.add(mk_task("w1", {o: write_footprint(o.size_bytes)}))
        w2 = g.add(mk_task("w2", {o: write_footprint(o.size_bytes)}))
        assert predecessors(g, w2) == [w1]

    def test_war_dependence(self):
        o = mk_obj()
        w0 = mk_task("w0", {o: write_footprint(o.size_bytes)})
        r = mk_task("r", {o: read_footprint(o.size_bytes)})
        w = mk_task("w", {o: write_footprint(o.size_bytes)})
        g, ref = build_both([w0, r, w])
        assert predecessors(g, w) == [w0, r]
        assert {(d.src.name, d.kind) for d in ref.dependences if d.dst is w} == {
            ("w0", DependenceKind.WAW),
            ("r", DependenceKind.WAR),
        }

    def test_independent_readers_are_parallel(self):
        g = TaskGraph()
        o = mk_obj()
        g.add(mk_task("w", {o: write_footprint(o.size_bytes)}))
        r1 = g.add(mk_task("r1", {o: read_footprint(o.size_bytes)}))
        r2 = g.add(mk_task("r2", {o: read_footprint(o.size_bytes)}))
        assert r1 not in predecessors(g, r2)
        assert r2 not in predecessors(g, r1)

    def test_disjoint_objects_no_edges(self):
        g = TaskGraph()
        t1 = g.add(mk_task("a", {mk_obj("x"): update_footprint(8, 8)}))
        t2 = g.add(mk_task("b", {mk_obj("y"): update_footprint(8, 8)}))
        assert not predecessors(g, t2) and not successors(g, t1)

    def test_infer_deps_false_skips_inference(self):
        g = TaskGraph()
        o = mk_obj()
        acc = ObjectAccess(AccessMode.WRITE, loads=0, stores=8, infer_deps=False)
        g.add(mk_task("w1", {o: acc}))
        w2 = g.add(mk_task("w2", {o: acc}))
        assert predecessors(g, w2) == []

    def test_manual_edge(self):
        g = TaskGraph()
        o = mk_obj()
        acc = ObjectAccess(AccessMode.WRITE, loads=0, stores=8, infer_deps=False)
        a = g.add(mk_task("a", {o: acc}))
        b = g.add(mk_task("b", {o: acc}))
        g.add_edge(a, b)
        assert predecessors(g, b) == [a]

    def test_manual_edge_must_point_forward(self):
        g = TaskGraph()
        o = mk_obj()
        a = g.add(mk_task("a", {o: update_footprint(8, 8)}))
        b = g.add(mk_task("b", {o: update_footprint(8, 8)}))
        with pytest.raises(ValueError):
            g.add_edge(b, a)

    def test_no_self_edge_when_objects_share_a_uid(self):
        x = mk_obj("x")
        y = DataObject(name="y", size_bytes=x.size_bytes, uid=x.uid)
        w = mk_task("w", {x: write_footprint(8)})
        t = mk_task("t", {x: read_footprint(8), y: write_footprint(8)})
        g, ref = build_both([w, t])
        assert predecessors(g, t) == [w]
        assert successors(g, t) == []
        assert ref.pred[t.tid] == {w.tid}

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        t = mk_task("t", {mk_obj(): update_footprint(8, 8)})
        g.add(t)
        with pytest.raises(ValueError):
            g.add(t)


class TestAnalyses:
    def chain(self, n=5):
        g = TaskGraph()
        o = mk_obj()
        for i in range(n):
            g.add(
                Task(
                    name=f"s{i}",
                    type_name="s",
                    accesses={o: update_footprint(o.size_bytes, o.size_bytes)},
                    compute_time=1.0,
                )
            )
        return g

    def test_topological_order_is_spawn_order_for_chain(self):
        g = self.chain()
        assert [t.name for t in g.topological_order()] == [t.name for t in g.tasks]

    def test_critical_path_of_chain(self):
        g = self.chain(5)
        length, path = critical_path(g, lambda t: t.compute_time)
        assert length == pytest.approx(5.0)
        assert len(path) == 5
        assert length == max(g.bottom_levels(lambda t: t.compute_time).values())

    def test_critical_path_of_parallel_tasks(self):
        g = TaskGraph()
        for i in range(4):
            g.add(
                Task(
                    name=f"p{i}",
                    type_name="p",
                    accesses={mk_obj(f"o{i}"): update_footprint(8, 8)},
                    compute_time=float(i + 1),
                )
            )
        length, path = critical_path(g, lambda t: t.compute_time)
        assert length == pytest.approx(4.0)
        assert len(path) == 1
        assert length == max(g.bottom_levels(lambda t: t.compute_time).values())

    def test_bottom_levels(self):
        g = self.chain(3)
        levels = g.bottom_levels(lambda t: 1.0)
        firsts = g.tasks[0]
        assert levels[firsts.tid] == pytest.approx(3.0)
        assert levels[g.tasks[-1].tid] == pytest.approx(1.0)

    def test_depths(self):
        g = self.chain(4)
        depths = task_depths(g)
        assert [depths[t.tid] for t in g.tasks] == [0, 1, 2, 3]

    def test_roots_and_objects(self):
        g = self.chain(3)
        assert [t for t in g.tasks if not predecessors(g, t)] == g.tasks[:1]
        assert len(g.objects) == 1

    def test_validate(self):
        g = self.chain(3)
        g.validate()


@settings(max_examples=50, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["read", "write", "readwrite"])),
        min_size=1,
        max_size=30,
    )
)
def test_dependence_inference_properties(accesses):
    """Property: the inferred graph is acyclic, edges point forward in
    spawn order, and any two tasks where the second writes an object the
    first touched are ordered."""
    g = TaskGraph()
    objs = [mk_obj(f"o{i}") for i in range(6)]
    for i, (oi, mode) in enumerate(accesses):
        m = AccessMode(mode)
        acc = ObjectAccess(
            m,
            loads=8 if reads(m) else 0,
            stores=8 if writes(m) else 0,
        )
        g.add(Task(name=f"t{i}", type_name="t", accesses={objs[oi]: acc}))
    g.validate()
    order = {t.tid: i for i, t in enumerate(g.tasks)}
    for t in g.tasks:
        for s in successors(g, t):
            assert order[s.tid] > order[t.tid]
    # conflict ordering: writer after any toucher of the same object
    for i, a in enumerate(g.tasks):
        for b in g.tasks[i + 1 :]:
            for obj in a.accesses:
                if obj in b.accesses and writes(b.accesses[obj].mode):
                    # b must be reachable from a
                    seen, stack = set(), [a]
                    while stack:
                        cur = stack.pop()
                        if cur is b:
                            stack = None
                            break
                        if cur.tid in seen:
                            continue
                        seen.add(cur.tid)
                        stack.extend(successors(g, cur))
                    assert stack is None, f"{a.name} and {b.name} unordered"


MODES = ("read", "write", "readwrite")

#: One access: (object index, mode, whether inference sees it).
access_st = st.tuples(st.integers(0, 4), st.sampled_from(MODES), st.booleans())


@st.composite
def access_programs(draw):
    """Tasks in spawn order, each a list of accesses (an object listed
    twice merges into one READWRITE/READ/WRITE access), plus manual
    forward edges keyed by their destination task."""
    n = draw(st.integers(1, 24))
    tasks = [
        draw(st.lists(access_st, min_size=0, max_size=4)) for _ in range(n)
    ]
    manual = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)
    )
    return tasks, [(a, b) for a, b in manual if a < b]


@settings(max_examples=150, deadline=None)
@given(program=access_programs())
def test_edge_sets_match_record_keeping_oracle(program):
    """Differential: the edge-set-only inference yields exactly the edges
    of the retired per-edge record log, for every task, through every
    query the runtime reads — including ``exec_core`` rebuilt after
    later mutations."""
    specs, manual = program
    objs = [mk_obj(f"o{i}") for i in range(5)]
    g, ref = TaskGraph(), ReferenceGraph()
    tasks = []
    for i, accesses in enumerate(specs):
        t = Task(name=f"t{i}", type_name="t", accesses={})
        for oi, mode, infer in accesses:
            m = AccessMode(mode)
            acc = ObjectAccess(
                m,
                loads=8 if reads(m) else 0,
                stores=8 if writes(m) else 0,
                infer_deps=infer,
            )
            old = t.accesses.get(objs[oi])
            t.accesses[objs[oi]] = acc if old is None else merge_accesses(old, acc)
        tasks.append(t)
        g.add(t)
        ref.add(t)
        # Take a snapshot: the manual edges below and later spawns must
        # make exec_core() build a new one.
        g.exec_core()
        for a, b in manual:
            if b == i:
                g.add_edge(tasks[a], t)
                ref.add_edge(tasks[a], t)

    by_tid = {t.tid: t for t in tasks}
    core = g.exec_core()
    assert [t.tid for t in core.tasks] == [t.tid for t in tasks]
    for i, t in enumerate(tasks):
        preds = sorted(ref.pred[t.tid])
        succs = sorted(ref.succ[t.tid])
        assert predecessors(g, t) == [by_tid[p] for p in preds]
        assert successors(g, t) == [by_tid[s] for s in succs]
        assert int(core.indeg0[i]) == len(preds)
        assert core.succ[i] == tuple(core.index[s] for s in succs)
    g.validate()


def test_depths_cache_resets_on_mutation():
    o = mk_obj()
    g = TaskGraph()
    assert task_depths(g) == {}
    a = g.add(mk_task("a", {o: update_footprint(8, 8)}))
    assert task_depths(g) == {a.tid: 0}
    assert g.exec_core() is g.exec_core()
    b = g.add(mk_task("b", {o: update_footprint(8, 8)}))
    assert task_depths(g) == {a.tid: 0, b.tid: 1}
