"""The what-if plane: RunSpec.diff / RunSpec.with_overrides.

The contract under test (pinned by the server's /v1/whatif endpoint):

- ``spec.diff(spec) == {}``;
- ``a.with_overrides(**{path: b_value for ...a.diff(b)...})`` reproduces
  ``b`` exactly, byte-identical cache key included;
- the source spec is never mutated;
- unknown dotted paths raise ``KeyError`` with a did-you-mean hint.
"""

from __future__ import annotations

import pytest

from repro.experiments.spec import SPEC_PATH_ALIASES, RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.units import MIB

NVM = nvm_bandwidth_scaled(0.5)
TINY = {"grid": 4, "iterations": 2}


def tiny_spec(**changes) -> RunSpec:
    base = dict(
        workload="heat",
        policy="tahoe",
        nvm=NVM,
        fast=True,
        workload_overrides=TINY,
    )
    base.update(changes)
    return RunSpec(**base)


def apply_diff(source: RunSpec, target: RunSpec) -> RunSpec:
    """The round-trip: feed the right-hand side of the diff back in."""
    overrides = {path: b for path, (_, b) in source.diff(target).items()}
    return source.with_overrides(**overrides)


class TestDiff:
    def test_self_diff_is_empty(self):
        s = tiny_spec()
        assert s.diff(s) == {}
        assert tiny_spec().diff(tiny_spec()) == {}

    def test_scalar_field_diff(self):
        a = tiny_spec()
        b = tiny_spec(dram_capacity=2 * a.dram_capacity, seed=7)
        d = a.diff(b)
        assert d == {
            "dram_capacity": (a.dram_capacity, b.dram_capacity),
            "seed": (None, 7),
        }

    def test_nested_paths_descend(self):
        a = tiny_spec()
        b = tiny_spec(workload_overrides={"grid": 4, "iterations": 9})
        assert a.diff(b) == {"workload_overrides.iterations": (2, 9)}

    def test_nvm_device_diffs_by_fingerprint_field(self):
        a = tiny_spec()
        b = tiny_spec(nvm=nvm_bandwidth_scaled(0.25))
        d = a.diff(b)
        assert all(path.startswith("nvm.") for path in d)
        assert "nvm.name" in d

    def test_optional_plane_appears_as_whole_subtree(self):
        a = tiny_spec()
        b = tiny_spec(faults="mild")
        d = a.diff(b)
        assert set(d) == {"faults"}
        absent, plan = d["faults"]
        assert absent is None
        assert isinstance(plan, dict)

    def test_diff_is_directional(self):
        a = tiny_spec()
        b = tiny_spec(seed=3)
        assert a.diff(b) == {"seed": (None, 3)}
        assert b.diff(a) == {"seed": (3, None)}


class TestWithOverrides:
    def test_scalar_override(self):
        a = tiny_spec()
        b = a.with_overrides(dram_capacity=64 * MIB)
        assert b.dram_capacity == 64 * MIB
        assert b == tiny_spec(dram_capacity=64 * MIB)

    def test_source_is_never_mutated(self):
        a = tiny_spec()
        before = a.to_dict()
        a.with_overrides(
            dram_capacity=64 * MIB,
            **{"workload_overrides.iterations": 9, "nvm.read_bandwidth": 1.0},
        )
        assert a.to_dict() == before
        assert a.workload_kwargs == TINY

    def test_empty_overrides_is_identity(self):
        a = tiny_spec()
        assert a.with_overrides() == a
        assert a.with_overrides().cache_key() == a.cache_key()

    def test_dotted_path_into_overrides_mapping(self):
        b = tiny_spec().with_overrides(**{"workload_overrides.iterations": 9})
        assert b.workload_kwargs == {"grid": 4, "iterations": 9}

    def test_alias_memory_dram_bytes(self):
        a = tiny_spec()
        b = a.with_overrides(**{"memory.dram_bytes": 2 * a.dram_capacity})
        assert b.dram_capacity == 2 * a.dram_capacity
        # The alias produces the same spec as the canonical spelling.
        assert b.cache_key() == a.with_overrides(
            dram_capacity=2 * a.dram_capacity
        ).cache_key()

    def test_unknown_path_raises_with_suggestion(self):
        with pytest.raises(KeyError, match="did you mean"):
            tiny_spec().with_overrides(dram_capcity=1)
        with pytest.raises(KeyError, match="unknown spec path"):
            tiny_spec().with_overrides(**{"no.such.path": 1})

    def test_descending_into_scalar_field_raises(self):
        with pytest.raises(KeyError, match="scalar field"):
            tiny_spec().with_overrides(**{"dram_capacity.bytes": 1})

    def test_unknown_nvm_field_raises(self):
        with pytest.raises(KeyError, match="nvm"):
            tiny_spec().with_overrides(**{"nvm.warp_speed": 1})

    def test_nvm_accepts_device_value(self):
        slow = nvm_bandwidth_scaled(0.25)
        b = tiny_spec().with_overrides(nvm=slow)
        assert b.nvm == slow
        assert b.cache_key() == tiny_spec(nvm=slow).cache_key()

    def test_none_drops_optional_plane(self):
        a = tiny_spec(faults="mild")
        b = a.with_overrides(faults=None)
        assert b.faults is None
        assert b.cache_key() == tiny_spec().cache_key()

    def test_grows_missing_optional_plane_leaf(self):
        a = tiny_spec(faults="mild")
        plan = a.to_dict()["faults"]
        b = tiny_spec().with_overrides(faults=plan)
        assert b.cache_key() == a.cache_key()


class TestRoundTrip:
    CASES = [
        dict(dram_capacity=64 * MIB),
        dict(seed=11, scheduler="critical-path"),
        dict(workload_overrides={"grid": 4, "iterations": 9}),
        dict(policy_overrides={"solver": "greedy"}),
        dict(nvm=nvm_bandwidth_scaled(0.25)),
        dict(faults="mild"),
        dict(telemetry=True),
        dict(stream=True),
        dict(workload="cg", workload_overrides={}),
    ]

    @pytest.mark.parametrize("changes", CASES, ids=lambda c: "+".join(sorted(c)))
    def test_diff_then_override_reproduces_target(self, changes):
        a, b = tiny_spec(), tiny_spec(**changes)
        c = apply_diff(a, b)
        assert c == b
        assert c.cache_key() == b.cache_key()
        assert a.diff(c) == a.diff(b)
        assert c.diff(b) == {}

    def test_round_trip_both_directions(self):
        a = tiny_spec(faults="mild", seed=3)
        b = tiny_spec(dram_capacity=64 * MIB, telemetry=True)
        assert apply_diff(a, b).cache_key() == b.cache_key()
        assert apply_diff(b, a).cache_key() == a.cache_key()


class TestHypothesisRoundTrip:
    """Property form of the round-trip over a generated spec space."""

    def test_property_round_trip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        specs = st.builds(
            tiny_spec,
            dram_capacity=st.sampled_from([8 * MIB, 16 * MIB, 64 * MIB]),
            n_workers=st.sampled_from([2, 4, 8]),
            seed=st.sampled_from([None, 0, 7]),
            scheduler=st.sampled_from(["fifo", "critical-path"]),
            workload_overrides=st.fixed_dictionaries(
                {"grid": st.sampled_from([4, 6]), "iterations": st.sampled_from([2, 3])}
            ),
            faults=st.sampled_from([None, "mild"]),
        )

        @settings(max_examples=60, deadline=None)
        @given(a=specs, b=specs)
        def check(a: RunSpec, b: RunSpec) -> None:
            assert (a.diff(b) == {}) == (a == b)
            c = apply_diff(a, b)
            assert c == b
            assert c.cache_key() == b.cache_key()

        check()


class TestFlattenAndAliases:
    def test_alias_table_targets_are_real_paths(self):
        spec_fields = set(tiny_spec().to_dict())
        for target in SPEC_PATH_ALIASES.values():
            assert target.split(".")[0] in spec_fields
