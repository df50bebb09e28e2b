"""DataObject, Task, trace, and scheduler units."""

import pytest

from repro.tasking.dataobj import DataObject
from repro.tasking.footprints import read_footprint, update_footprint
from repro.tasking.graph import TaskGraph
from repro.tasking.scheduler import CriticalPathPolicy, FIFOPolicy
from repro.tasking.task import Task
from repro.tasking.trace import ExecutionTrace, TaskRecord
from repro.util.units import MIB


class TestDataObject:
    def test_uids_unique(self):
        a = DataObject(name="a", size_bytes=64)
        b = DataObject(name="a", size_bytes=64)
        assert a.uid != b.uid
        assert a != b

    def test_partition_even_split(self):
        o = DataObject(name="o", size_bytes=1000, partitionable=True, static_ref_count=40)
        chunks = o.partition(4)
        assert len(chunks) == 4
        assert sum(c.size_bytes for c in chunks) == 1000
        assert chunks[0].static_ref_count == pytest.approx(10)

    def test_partition_last_chunk_takes_slack(self):
        o = DataObject(name="o", size_bytes=10, partitionable=True)
        chunks = o.partition(3)
        assert [c.size_bytes for c in chunks] == [3, 3, 4]

    def test_partition_requires_flag(self):
        o = DataObject(name="o", size_bytes=100)
        with pytest.raises(ValueError):
            o.partition(2)

    def test_chunk_indices(self):
        o = DataObject(name="o", size_bytes=100, partitionable=True)
        chunks = o.partition(2)
        assert [c.name for c in chunks] == ["o[0]", "o[1]"]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            DataObject(name="o", size_bytes=0)


class TestTask:
    def _task(self):
        a = DataObject(name="a", size_bytes=int(MIB))
        b = DataObject(name="b", size_bytes=int(MIB))
        return (
            Task(
                name="t",
                type_name="tt",
                accesses={
                    a: read_footprint(a.size_bytes),
                    b: update_footprint(b.size_bytes, b.size_bytes),
                },
                compute_time=1e-3,
            ),
            a,
            b,
        )

    def test_footprint_and_counts(self):
        t, a, b = self._task()
        assert t.total_accesses == sum(acc.accesses for acc in t.accesses.values())

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Task(name="t", type_name="t", accesses={}, compute_time=-1)


class TestSchedulerPolicies:
    def _tasks(self, n=4):
        o = [DataObject(name=f"o{i}", size_bytes=64) for i in range(n)]
        return [
            Task(name=f"t{i}", type_name="t", accesses={o[i]: read_footprint(64)})
            for i in range(n)
        ]

    def test_fifo_order(self):
        p = FIFOPolicy()
        p.prepare(TaskGraph())
        ts = self._tasks()
        for t in reversed(ts):
            p.push(t)
        assert [p.pop().name for _ in range(4)] == ["t0", "t1", "t2", "t3"]

    def test_critical_path_prefers_long_tail(self):
        g = TaskGraph()
        o = DataObject(name="chain", size_bytes=int(MIB))
        chain_head = g.add(
            Task(
                name="head",
                type_name="h",
                accesses={o: update_footprint(o.size_bytes, o.size_bytes)},
                compute_time=1e-3,
            )
        )
        for i in range(3):
            g.add(
                Task(
                    name=f"c{i}",
                    type_name="c",
                    accesses={o: update_footprint(o.size_bytes, o.size_bytes)},
                    compute_time=1e-3,
                )
            )
        lone = g.add(
            Task(
                name="lone",
                type_name="l",
                accesses={DataObject(name="x", size_bytes=64): read_footprint(64)},
                compute_time=1e-3,
            )
        )
        p = CriticalPathPolicy()
        p.prepare(g)
        p.push(lone)
        p.push(chain_head)
        assert p.pop() is chain_head  # longer bottom level first

    def test_len(self):
        p = FIFOPolicy()
        p.prepare(TaskGraph())
        assert len(p) == 0
        p.push(self._tasks(1)[0])
        assert len(p) == 1


class TestTrace:
    def _record(self, start, finish, worker=0, stall=0.0, ovh=0.0):
        t = Task(name="t", type_name="t", accesses={}, compute_time=0.0)
        return TaskRecord(
            task=t,
            worker=worker,
            start=start,
            finish=finish,
            compute_time=0.0,
            memory_time=finish - start,
            overhead_time=ovh,
            stall_time=stall,
            residency={},
        )

    def test_summary_fields(self):
        tr = ExecutionTrace(records=[self._record(0, 1)], makespan=1.0, n_workers=2)
        s = tr.summary()
        assert s["makespan"] == 1.0
        assert s["n_tasks"] == 1
        assert s["utilization"] == pytest.approx(0.5)

    def test_overhead_fraction(self):
        tr = ExecutionTrace(
            records=[self._record(0, 1, ovh=0.5)], makespan=1.0, n_workers=1
        )
        assert tr.overhead_fraction() == pytest.approx(0.5)

    def test_validate_catches_worker_overlap(self):
        tr = ExecutionTrace(
            records=[self._record(0, 1, worker=0), self._record(0.5, 2, worker=0)],
            makespan=2.0,
            n_workers=1,
        )
        with pytest.raises(AssertionError):
            tr.validate()

    def test_no_migrations_means_full_overlap(self):
        tr = ExecutionTrace(records=[], makespan=0.0)
        assert tr.migration_overlap() == 1.0
        assert tr.migration_count == 0
