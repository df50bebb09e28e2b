"""The RunSpec harness: spec identity, the parallel runner, the result
cache, the policy registry, and the execute_spec entry point."""

from __future__ import annotations

import pickle

import pytest

from repro.core.manager import DataManagerPolicy
from repro.experiments import parallel as parallel_mod
from repro.experiments import spec as spec_mod
from repro.experiments.cache import ResultCache, get_cache, set_cache_enabled
from repro.experiments.parallel import run_many
from repro.experiments.runner import (
    execute_spec,
    make_policy,
    make_scheduler,
)
from repro.experiments.spec import RunSpec, canonical_json
from repro.memory.presets import nvm_bandwidth_scaled

NVM = nvm_bandwidth_scaled(0.5)

#: Tiny-but-real runs: same DAG shape as the fast preset, fewer steps.
TINY = {"grid": 4, "iterations": 2}


def tiny_spec(policy="tahoe", **changes) -> RunSpec:
    base = dict(
        workload="heat",
        policy=policy,
        nvm=NVM,
        fast=True,
        workload_overrides=TINY,
    )
    base.update(changes)
    return RunSpec(**base)


class TestRunSpecIdentity:
    def test_hashable_and_dict_overrides_normalize(self):
        a = tiny_spec(workload_overrides={"iterations": 2, "grid": 4})
        b = tiny_spec(workload_overrides={"grid": 4, "iterations": 2})
        assert a == b
        assert hash(a) == hash(b)
        assert a.cache_key() == b.cache_key()
        assert {a: 1}[b] == 1

    def test_kwargs_views_round_trip(self):
        s = tiny_spec(policy_overrides={"solver": "greedy"})
        assert s.workload_kwargs == TINY
        assert s.policy_kwargs == {"solver": "greedy"}

    def test_pickle_round_trip(self):
        s = tiny_spec(seed=7, scheduler="critical-path")
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert clone.cache_key() == s.cache_key()

    def test_to_dict_round_trip(self):
        s = tiny_spec(exec_overrides={"sampling_interval_cycles": 512})
        clone = RunSpec.from_dict(s.to_dict())
        assert clone == s
        assert clone.cache_key() == s.cache_key()

    def test_unknown_exec_override_rejected(self):
        with pytest.raises(ValueError, match=r"unknown exec_overrides fields \['cpu_ghz'\]"):
            tiny_spec(exec_overrides={"cpu_ghz": 3.0})
        with pytest.raises(ValueError, match="known: .*'sampling_interval_cycles'"):
            tiny_spec().with_overrides(**{"exec_overrides.no_such_knob": 1})

    @pytest.mark.parametrize(
        "changes",
        [
            {"policy": "nvm-only"},
            {"seed": 3},
            {"dram_capacity": 64 * 2**20},
            {"scheduler": "memory-aware"},
            {"workload_overrides": {"grid": 4, "iterations": 3}},
            {"policy_overrides": {"solver": "greedy"}},
            {"fast": False},
        ],
    )
    def test_any_field_change_changes_cache_key(self, changes):
        assert tiny_spec().cache_key() != tiny_spec().replace(**changes).cache_key()

    def test_model_version_salt_invalidates(self, monkeypatch):
        before = tiny_spec().cache_key()
        monkeypatch.setattr(spec_mod, "MODEL_VERSION", spec_mod.MODEL_VERSION + 1)
        assert tiny_spec().cache_key() != before


class TestPolicyRegistry:
    def test_did_you_mean(self):
        with pytest.raises(KeyError, match="tahoe"):
            make_policy("taho")

    def test_unknown_scheduler(self):
        with pytest.raises(KeyError, match="fifo"):
            make_scheduler("fifp")

    def test_overrides_reach_the_config(self):
        pol = make_policy("tahoe", solver="greedy", name="tahoe-x")
        assert isinstance(pol, DataManagerPolicy)
        assert pol.name == "tahoe-x"

    def test_name_override_does_not_collide(self):
        # `name` inside overrides is a display name, not the registry key.
        pol = make_policy("static", dram_names=("a0",), name="only-a0")
        assert pol.name == "only-a0"
        assert pol.dram_names == frozenset({"a0"})


class TestRunManyDeterminism:
    @pytest.fixture()
    def specs(self):
        return [tiny_spec("tahoe"), tiny_spec("nvm-only"), tiny_spec("xmem")]

    def test_serial_parallel_and_cached_agree(self, specs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        serial = run_many(specs, workers=1, cache=cache, strict=True)
        fanned = run_many(specs, workers=4, cache=False, strict=True)
        cached = run_many(specs, workers=1, cache=cache, strict=True)

        assert all(not r.cached for r in serial + fanned)
        assert all(r.cached for r in cached)
        for a, b, c in zip(serial, fanned, cached):
            assert canonical_json(a.summary) == canonical_json(b.summary)
            assert canonical_json(a.summary) == canonical_json(c.summary)
            assert a.makespan == b.makespan == c.makespan
            assert canonical_json(a.energy) == canonical_json(c.energy)

    def test_duplicates_execute_once_and_keep_order(self, specs, tmp_path):
        calls = []
        batch = [specs[0], specs[1], specs[0]]
        out = run_many(
            batch,
            workers=1,
            cache=ResultCache(tmp_path / "cache"),
            progress=lambda done, total, r: calls.append((done, total)),
            strict=True,
        )
        assert [r.spec for r in out] == batch
        assert out[0].makespan == out[2].makespan
        assert calls[-1] == (3, 3)
        assert len(calls) == 3


class TestResultCache:
    def test_hit_returns_without_executing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        cold = run_many([spec], workers=1, cache=cache, strict=True)[0]
        assert cache.puts == 1

        def boom(_spec):
            raise AssertionError("cache hit must not re-execute")

        monkeypatch.setattr(parallel_mod, "run_and_summarize", boom)
        warm = run_many([spec], workers=1, cache=cache, strict=True)[0]
        assert warm.cached
        assert warm.makespan == cold.makespan
        assert cache.hits == 1

    def test_salt_bump_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        run_many([spec], workers=1, cache=cache, strict=True)
        monkeypatch.setattr(spec_mod, "MODEL_VERSION", spec_mod.MODEL_VERSION + 1)
        again = run_many([spec], workers=1, cache=cache, strict=True)[0]
        assert not again.cached
        assert cache.puts == 2

    def test_spec_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_many([tiny_spec()], workers=1, cache=cache, strict=True)
        other = run_many([tiny_spec(seed=11)], workers=1, cache=cache, strict=True)[0]
        assert not other.cached

    def test_invalidate_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        run_many([spec], workers=1, cache=cache, strict=True)
        assert cache.entries() == 1
        assert cache.size_bytes() > 0
        assert cache.prune(max_entries=0) == 1
        assert cache.get(spec.cache_key()) is None
        s = cache.stats()
        assert (s["hits"], s["puts"], s["entries"]) == (0, 1, 0)
        assert "misses" in cache.describe()

    def test_disable_switch(self, monkeypatch):
        set_cache_enabled(False)
        try:
            assert get_cache() is None
        finally:
            set_cache_enabled(True)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert get_cache() is None

    def test_cache_bypass_false(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        run_many([spec], workers=1, cache=cache, strict=True)
        fresh = run_many([spec], workers=1, cache=False)[0]
        assert not fresh.cached


class TestFailureContainment:
    BAD = tiny_spec(workload_overrides={"no_such_parameter": 1})

    def test_failure_record_and_siblings_complete(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good = tiny_spec()
        out = run_many([self.BAD, good], workers=1, cache=cache)
        assert not out[0].ok
        assert out[0].error_type == "TypeError"
        assert "no_such_parameter" in (out[0].traceback or "")
        assert out[1].ok and out[1].makespan > 0
        # failures are never cached
        assert cache.get(self.BAD.cache_key()) is None

    def test_worker_crash_contained_across_processes(self):
        out = run_many([self.BAD, tiny_spec()], workers=2, cache=False)
        assert not out[0].ok
        assert out[1].ok

    def test_strict_raises(self):
        with pytest.raises(RuntimeError, match="heat/tahoe"):
            run_many([self.BAD], workers=1, cache=False, strict=True)


class TestRunWorkloadAPI:
    def test_spec_form_is_the_only_entry_point(self, recwarn):
        tr = execute_spec(tiny_spec())
        assert tr.makespan > 0
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_top_level_exports(self):
        import repro

        assert repro.RunSpec is RunSpec
        assert repro.run_many is run_many
        assert callable(repro.make_policy)


class TestMixedFormatCache:
    """JSON and binary entries must interoperate inside one directory."""

    def test_cross_format_put_get(self, tmp_path):
        d = tmp_path / "cache"
        js = ResultCache(d, binary=False)
        bz = ResultCache(d, binary=True)
        js.put("alpha", {"makespan": 1.0})
        bz.put("beta", {"makespan": 2.0, "trace": list(range(64))})
        # Readers accept both formats regardless of write preference.
        assert bz.get("alpha") == {"makespan": 1.0}
        assert js.get("beta")["trace"] == list(range(64))
        assert (d / "alpha.json").exists()
        assert (d / "beta.jsonz").exists()

    def test_put_supersedes_other_format_twin(self, tmp_path):
        d = tmp_path / "cache"
        js = ResultCache(d, binary=False)
        bz = ResultCache(d, binary=True)
        js.put("alpha", {"makespan": 1.0})
        bz.put("alpha", {"makespan": 1.5})
        assert not (d / "alpha.json").exists()
        assert js.get("alpha") == {"makespan": 1.5}
        js.put("alpha", {"makespan": 1.75})
        assert not (d / "alpha.jsonz").exists()
        assert bz.get("alpha") == {"makespan": 1.75}

    def test_corrupt_binary_degrades_to_miss(self, tmp_path):
        d = tmp_path / "cache"
        bz = ResultCache(d, binary=True)
        bz.put("beta", {"makespan": 2.0})
        (d / "beta.jsonz").write_bytes(b"RPZ1" + b"\x00garbage")
        assert bz.get("beta") is None
        assert bz.misses == 1

    def test_truncated_binary_is_quarantined_and_recoverable(self, tmp_path):
        d = tmp_path / "cache"
        bz = ResultCache(d, binary=True)
        bz.put("beta", {"makespan": 2.0})
        blob = (d / "beta.jsonz").read_bytes()
        (d / "beta.jsonz").write_bytes(blob[: len(blob) // 2])  # torn write
        # The corpse misses, never raises, and is moved aside ...
        assert bz.get("beta") is None
        assert bz.misses == 1
        assert bz.quarantined == 1
        assert not (d / "beta.jsonz").exists()
        assert (d / "beta.jsonz.bad").exists()
        # ... so it no longer shadows the key: misses stay cheap and a
        # fresh result re-caches under the same key.
        assert bz.get("beta") is None
        assert bz.quarantined == 1  # nothing left to quarantine
        bz.put("beta", {"makespan": 2.5})
        assert bz.get("beta") == {"makespan": 2.5}
        assert bz.stats()["quarantined"] == 1

    def test_torn_json_is_quarantined(self, tmp_path):
        d = tmp_path / "cache"
        js = ResultCache(d, binary=False)
        js.put("alpha", {"makespan": 1.0})
        (d / "alpha.json").write_text('{"makespan": 1.', encoding="utf-8")
        assert js.get("alpha") is None
        assert js.quarantined == 1
        assert (d / "alpha.json.bad").exists()
        # Quarantined corpses are invisible to entry accounting.
        assert js.entries() == 0

    def test_prune_over_mixed_set(self, tmp_path):
        import os

        d = tmp_path / "cache"
        js = ResultCache(d, binary=False)
        bz = ResultCache(d, binary=True)
        for i, cache in enumerate([js, bz, js, bz]):
            cache.put(f"k{i}", {"i": i})
        # Deterministic LRU order regardless of filesystem timestamp
        # resolution: k0 oldest ... k3 newest.
        for i in range(4):
            entry = d / (f"k{i}.jsonz" if i % 2 else f"k{i}.json")
            os.utime(entry, (1000.0 + i, 1000.0 + i))
        removed = js.prune(max_entries=2)
        assert removed == 2
        assert js.get("k0") is None and js.get("k1") is None
        assert js.get("k2") == {"i": 2} and js.get("k3") == {"i": 3}

    def test_prune_age_with_injected_clock(self, tmp_path):
        import os

        d = tmp_path / "cache"
        cache = ResultCache(d, binary=False)
        for i in range(3):
            cache.put(f"k{i}", {"i": i})
            os.utime(d / f"k{i}.json", (1000.0 * (i + 1),) * 2)
        # Reference clock injected: k0 (t=1000) and k1 (t=2000) are older
        # than 1500 s at now=3600; k2 (t=3000) survives.  No sleeping, no
        # wall-clock dependence.
        removed = cache.prune(max_age_s=1500.0, now=3600.0)
        assert removed == 2
        assert cache.get("k2") == {"i": 2}
        assert cache.get("k0") is None and cache.get("k1") is None

    def test_prune_mtime_ties_break_by_name(self, tmp_path):
        import os

        d = tmp_path / "cache"
        cache = ResultCache(d, binary=False)
        for name in ("aa", "bb", "cc", "dd"):
            cache.put(name, {"k": name})
            os.utime(d / f"{name}.json", (1000.0, 1000.0))  # all tied
        # LRU by (mtime, name): with every mtime equal, the lexically
        # largest names count as newest, so 'aa' and 'bb' are evicted —
        # deterministically, on any filesystem timestamp resolution.
        removed = cache.prune(max_entries=2)
        assert removed == 2
        assert cache.get("aa") is None and cache.get("bb") is None
        assert cache.get("cc") == {"k": "cc"} and cache.get("dd") == {"k": "dd"}

    def test_stats_count_binary_entries(self, tmp_path):
        d = tmp_path / "cache"
        js = ResultCache(d, binary=False)
        bz = ResultCache(d, binary=True)
        js.put("a", {"x": 1})
        bz.put("b", {"x": 2})
        bz.put("c", {"x": 3})
        st = js.stats()
        assert st["entries"] == 3
        assert st["binary_entries"] == 2
        assert st["puts"] == 1 and bz.stats()["puts"] == 2
        assert "2 binary" in js.describe()
