"""Interned footprints: sharing is by value and never observable.

The footprint helpers return one shared :class:`ObjectAccess` per
distinct ``(mode, loads, stores, pattern)``.  These tests pin that equal
arguments share an instance, that patterns differing in any field never
alias, that a repeat call is a bare table probe, that the intern table
is bounded, and that partitioning one graph
(the one in-place graph transform) leaves every other graph built from
the same helpers exactly as it was.
"""

from __future__ import annotations

import dataclasses
import json

from repro.core.partition import partition_graph
from repro.experiments.runner import run_and_summarize
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.tasking import footprints
from repro.tasking.access import BLOCKED, STREAMING, AccessMode, AccessPattern
from repro.tasking.footprints import (
    chase_footprint,
    read_footprint,
    update_footprint,
    write_footprint,
)
from repro.util.units import MIB
from repro.workloads.base import build
from repro.workloads.memo import build_cached, clear_build_cache


def snapshot(acc):
    """Every field and precomputed traffic value of an access."""
    derived = {
        k: acc.__dict__[k]
        for k in ("accesses", "miss_loads", "miss_stores",
                  "read_traffic_bytes", "write_traffic_bytes")
    }
    return dataclasses.astuple(acc), derived


class TestInterning:
    def test_equal_arguments_share_one_instance(self):
        assert read_footprint(4096) is read_footprint(4096)
        assert write_footprint(4096, BLOCKED, 2.0) is write_footprint(4096, BLOCKED, 2.0)
        assert update_footprint(64, 32) is update_footprint(64, 32)
        assert chase_footprint(100, 0.5) is chase_footprint(100, 0.5)
        # Same counts and pattern, different modes: never one instance.
        rw = update_footprint(64, 0, STREAMING)
        assert rw.mode is AccessMode.READWRITE
        assert read_footprint(64) is not rw

    def test_patterns_differing_in_any_field_never_alias(self):
        base = AccessPattern("custom", hit_ratio=0.5, mlp=4.0)
        other_hit = AccessPattern("custom", hit_ratio=0.75, mlp=4.0)
        other_mlp = AccessPattern("custom", hit_ratio=0.5, mlp=2.0)
        a = read_footprint(8192, base)
        b = read_footprint(8192, other_hit)
        c = read_footprint(8192, other_mlp)
        assert a is not b and a is not c and b is not c
        assert a.pattern is base and b.pattern is other_hit and c.pattern is other_mlp
        assert a.read_traffic_bytes == 1024 * 0.5 * 64
        assert b.read_traffic_bytes == 1024 * 0.25 * 64
        # Equal by value is the same key, whichever instance it is.
        assert read_footprint(8192, AccessPattern("custom", 0.5, 4.0)) is a

    def test_arguments_that_round_to_equal_counts_share_one_instance(self):
        # 4100 bytes is 512.5 words, which rounds to 512 like 4096 does.
        a = read_footprint(4096)
        assert read_footprint(4100) is a
        assert read_footprint(2048, reuse=2.0) is a
        assert read_footprint(4096.0, STREAMING, 1) is a
        u = update_footprint(800, 400, BLOCKED, 2.0)
        assert update_footprint(1600, 800) is u
        assert write_footprint(4100) is write_footprint(4096)
        assert write_footprint(4096) is not a

    def test_repeat_call_skips_count_and_python_hashing(self, monkeypatch):
        custom = AccessPattern("custom-repeat", hit_ratio=0.5, mlp=2.0)
        firsts = [
            read_footprint(4096, custom, 3.0),
            write_footprint(4096, custom),
            update_footprint(64, 32, custom),
            chase_footprint(100, 0.5),
        ]

        def forbidden(*args):
            raise AssertionError("repeat call recomputed or hashed its key")

        monkeypatch.setattr(footprints, "_count", forbidden)
        monkeypatch.setattr(AccessPattern, "__hash__", forbidden)
        monkeypatch.setattr(AccessMode, "__hash__", forbidden)
        assert [
            read_footprint(4096, custom, 3.0),
            write_footprint(4096, custom),
            update_footprint(64, 32, custom),
            chase_footprint(100, 0.5),
        ] == firsts

    def test_intern_table_is_bounded(self):
        bound = footprints.INTERN_MAX
        first = read_footprint(8, STREAMING)
        for n in range(bound + 100):
            read_footprint(8 * (n + 2), STREAMING)
        assert len(footprints._table) <= bound
        assert len(footprints._table) >= bound - 1
        # The oldest keys went first; asking again builds an equal
        # footprint, and the newest stay shared.
        again = read_footprint(8, STREAMING)
        assert snapshot(again) == snapshot(first)
        newest = 8 * (bound + 101)
        assert read_footprint(newest, STREAMING) is read_footprint(newest, STREAMING)
        assert len(footprints._table) <= bound


def test_partitioning_one_graph_leaves_shared_accesses_untouched():
    a = build("stream", n_tasks=4, mib_per_array=8.0, iterations=2)
    b = build("stream", n_tasks=4, mib_per_array=8.0, iterations=2)
    shared = [acc for t in a.graph.tasks for acc in t.accesses.values()]
    b_accs = {id(acc) for t in b.graph.tasks for acc in t.accesses.values()}
    assert all(id(acc) in b_accs for acc in shared)
    before = [snapshot(acc) for acc in shared]
    n_objects = len(b.graph.objects)
    partition_graph(b.graph, int(2 * MIB))
    assert len(b.graph.objects) > n_objects
    assert [snapshot(acc) for acc in shared] == before


def test_partitioned_run_leaves_other_graphs_payloads_identical():
    """A partitioned run between two runs of an unpartitioned spec (on
    its interned graph, whose footprints the partitioned build shares)
    must not move a byte of the unpartitioned payload."""
    clear_build_cache()
    nvm = nvm_bandwidth_scaled(0.5)
    # 48 MiB arrays: above the 32 MiB chunk size, so the tahoe run splits.
    params = {"n_tasks": 4, "mib_per_array": 48.0, "iterations": 2}
    spec = RunSpec("stream", "nvm-only", nvm, workload_overrides=params)

    def blob(s: RunSpec) -> str:
        payload = run_and_summarize(s).to_payload()
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    first = blob(spec)
    blob(RunSpec(
        "stream", "tahoe", nvm, workload_overrides=params,
        policy_overrides={"name": "tahoe-part", "partition_max_bytes": 32 * MIB},
    ))
    whole = build_cached("stream", **params).graph
    split = build_cached("stream", partition_max_bytes=32 * MIB, **params).graph
    assert len(split.objects) > len(whole.objects)
    assert blob(spec) == first
