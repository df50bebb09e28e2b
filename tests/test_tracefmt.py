"""Trace exports: Chrome Trace Event JSON and the ASCII gantt."""

import json

from repro.core.manager import DataManagerPolicy
from repro.experiments.runner import execute_spec
from repro.experiments.spec import RunSpec
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.tracefmt import ascii_gantt, to_chrome_trace
from repro.util.units import MIB

from tests.helpers import dram_for, make_fork_join_graph, run_graph


def _migrating_trace():
    """A run with real migrations (tight DRAM forces helper-lane copies)."""
    graph = make_fork_join_graph(width=6, obj_mib=4.0)
    return run_graph(
        graph,
        dram(8 * MIB),
        nvm_bandwidth_scaled(0.25).scaled(capacity_bytes=256 * MIB),
        policy=DataManagerPolicy(),
        workers=3,
    )


class TestChromeTrace:
    def test_valid_json_with_expected_structure(self):
        trace = _migrating_trace()
        doc = json.loads(to_chrome_trace(trace))
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        for e in events:
            assert e["ph"] in ("X", "M", "i")
            assert e["pid"] == 0
            if e["ph"] == "X":
                assert e["dur"] >= 0.0

    def test_rows_cover_workers_and_copy_lane(self):
        trace = _migrating_trace()
        events = json.loads(to_chrome_trace(trace))["traceEvents"]
        names = {e["tid"]: e["args"]["name"] for e in events if e["name"] == "thread_name"}
        for w in range(trace.n_workers):
            assert names[w] == f"worker {w}"
        assert names[trace.n_workers + 1] == "helper thread (copies)"
        # every task slice lands on a worker row, every copy on the lane row
        task_tids = {e["tid"] for e in events if e.get("cat") == "task"}
        assert task_tids <= set(range(trace.n_workers))
        copy_tids = {e["tid"] for e in events if e.get("cat") == "migration"}
        assert copy_tids == {trace.n_workers + 1}
        assert len([e for e in events if e.get("cat") == "migration"]) == len(
            trace.migrations.records
        )

    def test_no_fault_row_without_faults(self):
        trace = _migrating_trace()
        events = json.loads(to_chrome_trace(trace))["traceEvents"]
        assert not any(e.get("cat") == "fault" for e in events)
        assert not any(
            e["name"] == "thread_name" and e["args"]["name"] == "injected faults"
            for e in events
        )

    def test_fault_row_when_faulted(self):
        nvm = nvm_bandwidth_scaled(0.5)
        trace = execute_spec(
            RunSpec("cg", "tahoe", nvm, fast=True, faults="flaky-copies")
        )
        events = json.loads(to_chrome_trace(trace))["traceEvents"]
        assert any(
            e["name"] == "thread_name" and e["args"]["name"] == "injected faults"
            for e in events
        )
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(trace.faults["events"])
        # retried copies carry their attempt count
        attempts = [
            e["args"].get("attempts", 1)
            for e in events
            if e.get("cat") == "migration"
        ]
        assert max(attempts) > 1


class TestAsciiGantt:
    def test_deterministic_and_shaped(self):
        graph = make_fork_join_graph(width=6, obj_mib=2.0)
        trace = run_graph(graph, dram_for(graph), nvm_bandwidth_scaled(0.5), workers=3)
        text = ascii_gantt(trace, width=60)
        again = ascii_gantt(trace, width=60)
        assert text == again
        lines = text.splitlines()
        worker_lines = [ln for ln in lines if ln.startswith("worker")]
        assert len(worker_lines) == trace.n_workers
        for ln in worker_lines:
            assert "#" in ln
            assert len(ln.split("|")[1]) == 60
        assert "faults" not in text

    def test_copy_and_fault_rows(self):
        nvm = nvm_bandwidth_scaled(0.5)
        trace = execute_spec(RunSpec("cg", "tahoe", nvm, fast=True, faults="moderate"))
        text = ascii_gantt(trace, width=60)
        assert any(ln.startswith("copies") and "~" in ln for ln in text.splitlines())
        fault_lines = [ln for ln in text.splitlines() if ln.startswith("faults")]
        assert len(fault_lines) == 1
        assert "x" in fault_lines[0]  # whole-run NVM brown-out

    def test_empty_trace(self):
        from repro.tasking.trace import ExecutionTrace

        assert ascii_gantt(ExecutionTrace()) == "(empty trace)"
