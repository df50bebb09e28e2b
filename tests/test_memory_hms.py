"""Heterogeneous memory system placement state machine."""

import dataclasses

import pytest

from repro.memory.allocator import OutOfMemoryError
from repro.memory.device import DeviceKind
from repro.memory.hms import HeterogeneousMemorySystem
from repro.memory.presets import dram, nvm_bandwidth_scaled
from repro.tasking.dataobj import DataObject
from repro.util.units import MIB


@pytest.fixture
def machine():
    return HeterogeneousMemorySystem(dram(16 * MIB), nvm_bandwidth_scaled(0.5, 256 * MIB))


def obj(mib: float, name: str = "o") -> DataObject:
    return DataObject(name=name, size_bytes=int(mib * MIB))


class TestConstruction:
    def test_wrong_kinds_rejected(self):
        d, n = dram(), nvm_bandwidth_scaled(0.5)
        with pytest.raises(ValueError):
            HeterogeneousMemorySystem(n, n)
        with pytest.raises(ValueError):
            HeterogeneousMemorySystem(d, d)


class TestPlacement:
    def test_default_allocation_is_nvm(self, machine):
        o = obj(1)
        machine.allocate(o)
        assert machine.device_of(o).kind is DeviceKind.NVM
        assert not machine.in_dram(o)

    def test_explicit_dram_allocation(self, machine):
        o = obj(1)
        machine.allocate(o, machine.dram)
        assert machine.in_dram(o)
        assert machine.dram_used_bytes() >= o.size_bytes

    def test_double_allocation_rejected(self, machine):
        o = obj(1)
        machine.allocate(o)
        with pytest.raises(ValueError):
            machine.allocate(o)

    def test_move_roundtrip(self, machine):
        o = obj(2)
        machine.allocate(o)
        machine.move(o, machine.dram)
        assert machine.in_dram(o)
        machine.move(o, machine.nvm)
        assert not machine.in_dram(o)
        assert machine.dram_used_bytes() == 0

    def test_move_is_idempotent(self, machine):
        o = obj(1)
        machine.allocate(o, machine.dram)
        p1 = machine.move(o, machine.dram)
        p2 = machine._placements[o.uid]
        assert p1 == p2

    def test_dram_capacity_enforced(self, machine):
        big = obj(20, "big")  # > 16 MiB DRAM
        machine.allocate(big)
        with pytest.raises(OutOfMemoryError):
            machine.move(big, machine.dram)
        # object stays on NVM after the failed move
        assert not machine.in_dram(big)

    def test_free_releases_space(self, machine):
        o = obj(8)
        machine.allocate(o, machine.dram)
        assert machine.dram_used_bytes() > 0
        machine.free(o)
        assert not machine.is_placed(o)
        assert machine.dram_used_bytes() == 0

    def test_objects_in_dram_and_residency(self, machine):
        a, b = obj(1, "a"), obj(1, "b")
        machine.allocate(a, machine.dram)
        machine.allocate(b)
        assert [o.name for o in machine.objects_in_dram()] == ["a"]
        res = machine.residency()
        assert res[a.uid] == machine.dram.name
        assert res[b.uid] == machine.nvm.name

    def test_dram_fits(self, machine):
        assert machine.dram_fits(16 * MIB)
        machine.allocate(obj(10), machine.dram)
        assert machine.dram_fits(6 * MIB)
        assert not machine.dram_fits(7 * MIB)

    def test_unknown_device_rejected(self, machine):
        o = obj(1)
        machine.allocate(o)
        with pytest.raises(KeyError):
            machine.move(o, "bogus")



class TestInvariants:
    """``check_invariants`` ties every placement to its object, its
    allocator extent and the dirty set."""

    @pytest.fixture
    def placed(self, machine):
        a, b = obj(2, "a"), obj(3, "b")
        machine.allocate(a, machine.dram)
        machine.allocate(b)
        machine.mark_dirty(a)
        machine.check_invariants()
        return a, b

    def test_wrong_placement_size_is_caught(self, machine, placed):
        a, _ = placed
        pl = machine._placements[a.uid]
        machine._placements[a.uid] = dataclasses.replace(pl, size=pl.size + 1)
        with pytest.raises(AssertionError):
            machine.check_invariants()

    def test_dirty_object_on_nvm_is_caught(self, machine, placed):
        _, b = placed
        machine._dirty.add(b.uid)
        with pytest.raises(AssertionError):
            machine.check_invariants()
