"""Workload generators: structure, determinism, and characteristic shapes."""

import pytest

from repro.baselines import DRAMOnlyPolicy, NVMOnlyPolicy
from repro.memory.presets import dram, nvm_bandwidth_scaled, nvm_latency_scaled
from repro.tasking.access import POINTER_CHASE
from repro.workloads import WORKLOADS, build
from repro.util.units import MIB

from tests.helpers import dram_for, run_graph, task_depths

#: Small parameters per workload so structural tests stay fast.
SMALL = {
    "cg": dict(n_chunks=4, iterations=2),
    "heat": dict(grid=4, iterations=3),
    "cholesky": dict(n_tiles=5),
    "lu": dict(n_tiles=4),
    "sparselu": dict(n_blocks=6),
    "health": dict(steps=3),
    "nbody": dict(n_tiles=4, steps=2),
    "mg": dict(iterations=2),
    "fft": dict(n_slices=8, iterations=1),
    "strassen": dict(depth=1),
    "randomdag": dict(layers=4, width=6),
    "phaseshift": dict(steps=10, shift_at=5),
    "kmeans": dict(n_chunks=4, iterations=2),
    "stream": dict(n_tasks=3, iterations=2),
    "pchase": dict(n_tasks=3),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestEveryWorkload:
    def test_builds_and_validates(self, name):
        w = build(name, **SMALL[name])
        w.graph.validate()
        assert len(w.graph) > 0
        assert w.total_bytes > 0
        assert w.name == name

    def test_deterministic(self, name):
        w1 = build(name, **SMALL[name])
        w2 = build(name, **SMALL[name])
        assert len(w1.graph) == len(w2.graph)
        assert [t.type_name for t in w1.graph.tasks] == [
            t.type_name for t in w2.graph.tasks
        ]
        assert sorted(o.size_bytes for o in w1.objects) == sorted(
            o.size_bytes for o in w2.objects
        )

    def test_objects_are_fresh_per_build(self, name):
        w1 = build(name, **SMALL[name])
        w2 = build(name, **SMALL[name])
        assert {o.uid for o in w1.objects}.isdisjoint({o.uid for o in w2.objects})

    def test_runs_end_to_end(self, name):
        w = build(name, **SMALL[name])
        tr = run_graph(w.graph, dram_for(w.graph), nvm_bandwidth_scaled(0.5),
                       DRAMOnlyPolicy(), workers=4)
        tr.validate()
        assert len(tr.records) == len(w.graph)

    def test_static_refs_nonnegative(self, name):
        w = build(name, **SMALL[name])
        assert all(o.static_ref_count >= 0 for o in w.objects)


class TestRegistry:
    def test_known_names(self):
        expected = {
            "cg", "heat", "cholesky", "lu", "sparselu", "health", "nbody",
            "mg", "fft", "strassen", "randomdag", "stream", "pchase", "kmeans", "phaseshift",
        }
        assert expected == set(WORKLOADS)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build("nope")


class TestCharacteristicShapes:
    """The properties the experiment suite depends on."""

    def _slowdown(self, name, nvm, **params):
        w = build(name, **params)
        ref = run_graph(w.graph, dram_for(w.graph), nvm, DRAMOnlyPolicy(), workers=8)
        w2 = build(name, **params)
        on_nvm = run_graph(w2.graph, dram(), nvm, NVMOnlyPolicy(), workers=8)
        return on_nvm.makespan / ref.makespan

    def test_heat_is_bandwidth_sensitive(self):
        assert self._slowdown("heat", nvm_bandwidth_scaled(0.5), **SMALL["heat"]) > 1.5
        assert self._slowdown("heat", nvm_latency_scaled(4.0), **SMALL["heat"]) < 1.1

    def test_health_is_latency_sensitive(self):
        assert self._slowdown("health", nvm_latency_scaled(4.0), **SMALL["health"]) > 1.4
        assert self._slowdown("health", nvm_bandwidth_scaled(0.5), **SMALL["health"]) < 1.2

    def test_cg_is_mixed(self):
        assert self._slowdown("cg", nvm_bandwidth_scaled(0.5), **SMALL["cg"]) > 1.25
        assert self._slowdown("cg", nvm_latency_scaled(4.0), **SMALL["cg"]) > 1.25

    def test_health_uses_pointer_chasing(self):
        w = build("health", **SMALL["health"])
        patterns = {
            a.pattern.name for t in w.graph.tasks for a in t.accesses.values()
        }
        assert POINTER_CHASE.name in patterns

    def test_fft_arrays_are_monolithic_and_partitionable(self):
        w = build("fft", **SMALL["fft"])
        big = [o for o in w.objects if o.partitionable]
        assert len(big) == 2
        assert all(o.size_bytes > 64 * MIB for o in big)

    def test_fft_stages_have_intra_stage_parallelism(self):
        w = build("fft", n_slices=8, iterations=1)
        depths = task_depths(w.graph)
        locals_ = [t for t in w.graph.tasks if t.type_name == "fft_local"]
        assert len({depths[t.tid] for t in locals_}) == 1  # all parallel

    def test_sparselu_has_fillin_without_static_refs(self):
        w = build("sparselu", n_blocks=8, density=0.3)
        fill = [o for o in w.objects if o.name.endswith("~fill")]
        assert fill, "expected fill-in blocks"
        assert all(o.static_ref_count == 0.0 for o in fill)

    def test_heat_variation_changes_task_compute(self):
        w = build("heat", grid=4, iterations=6, variation_at=3, hot_boost=4.0)
        early = [t for t in w.graph.tasks if t.iteration == 0]
        late = [t for t in w.graph.tasks if t.iteration == 5]
        assert max(t.compute_time for t in late) > 2 * max(
            t.compute_time for t in early
        )

    def test_cholesky_task_counts(self):
        n = 5
        w = build("cholesky", n_tiles=n)
        by_type = {}
        for t in w.graph.tasks:
            by_type[t.type_name] = by_type.get(t.type_name, 0) + 1
        assert by_type["potrf"] == n
        assert by_type["trsm"] == n * (n - 1) // 2
        assert by_type["syrk"] == n * (n - 1) // 2

    def test_lu_gemm_dominates(self):
        w = build("lu", n_tiles=5)
        gemms = sum(1 for t in w.graph.tasks if t.type_name == "gemm")
        assert gemms == sum((5 - k - 1) ** 2 for k in range(5))

    def test_mg_has_indivisible_large_tiles(self):
        w = build("mg", iterations=2)
        fine = [o for o in w.objects if o.name.startswith("grid0")]
        assert all(not o.partitionable for o in fine)
        assert all(o.size_bytes == 64 * MIB for o in fine)

    def test_stream_tasks_independent_within_iteration(self):
        w = build("stream", n_tasks=4, iterations=1)
        assert not w.graph.exec_core().indeg0.any()

    def test_pchase_is_serial_chain(self):
        w = build("pchase", n_tasks=5)
        depths = task_depths(w.graph)
        assert sorted(depths.values()) == list(range(5))
