"""Property-based HMS state machine test: random alloc/move/dirty
sequences against a dictionary model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.allocator import OutOfMemoryError
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.dataobj import DataObject
from repro.util.units import MIB

from tests.helpers import residency


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["alloc_nvm", "alloc_dram", "to_dram", "to_nvm", "dirty"]),
            st.integers(0, 9),
            st.integers(1, 12),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_hms_matches_dictionary_model(ops):
    hms = HeterogeneousMemorySystem(dram(16 * MIB), nvm_bandwidth_scaled(0.5).scaled(capacity_bytes=256 * MIB))
    model: dict[int, str] = {}  # uid -> device name
    dirty_model: set[int] = set()
    objs: dict[int, DataObject] = {}

    for kind, slot, size_mib in ops:
        obj = objs.get(slot)
        if kind.startswith("alloc"):
            if obj is not None and hms.is_placed(obj):
                continue
            obj = DataObject(name=f"s{slot}", size_bytes=size_mib * MIB)
            objs[slot] = obj
            target = hms.dram if kind == "alloc_dram" else hms.nvm
            try:
                hms.allocate(obj, target)
                model[obj.uid] = target.name
            except OutOfMemoryError:
                del objs[slot]
        elif obj is None or not hms.is_placed(obj):
            continue
        elif kind == "to_dram":
            was_there = model[obj.uid] == hms.dram.name
            try:
                hms.move(obj, hms.dram)
                model[obj.uid] = hms.dram.name
                if not was_there:  # a no-op move copies nothing
                    dirty_model.discard(obj.uid)
            except OutOfMemoryError:
                pass  # placement unchanged on failure
        elif kind == "to_nvm":
            was_there = model[obj.uid] == hms.nvm.name
            hms.move(obj, hms.nvm)
            model[obj.uid] = hms.nvm.name
            if not was_there:  # a no-op move copies nothing
                dirty_model.discard(obj.uid)
        elif kind == "dirty":
            hms.mark_dirty(obj)
            if model[obj.uid] == hms.dram.name:
                dirty_model.add(obj.uid)

        # Invariants after every step.
        hms.check_invariants()
        assert residency(hms) == model
        for o in objs.values():
            if hms.is_placed(o):
                assert hms.is_dirty(o) == (o.uid in dirty_model)
        assert hms.dram_used_bytes() <= 16 * MIB
