"""Two-tier heterogeneous memory system (DRAM + NVM).

Tracks which device every data object lives on, enforces capacity through
the per-device allocators, and applies placement changes.  It is purely a
state machine — *when* a migration happens and what it costs in virtual
time is the migration engine's and executor's business.

Objects are duck-typed: anything with ``uid`` (hashable) and ``size_bytes``
(int) can be placed, which keeps this package free of dependencies on the
tasking layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.memory.allocator import FreeListAllocator
from repro.memory.device import DeviceKind, MemoryDevice
from repro.metrics.registry import bind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.registry import MetricsRegistry

__all__ = ["HeterogeneousMemorySystem", "Placement", "Placeable"]


@runtime_checkable
class Placeable(Protocol):
    """Minimal interface an object must expose to be placed on the HMS."""

    uid: int
    size_bytes: int


@dataclass(frozen=True)
class Placement:
    """Where one object currently lives."""

    device: str
    offset: int
    size: int


class HeterogeneousMemorySystem:
    """DRAM+NVM address-space and placement manager.

    By convention NVM is the *backing* tier: every object can always be
    (re)placed there because the evaluation sizes NVM to hold the full
    working set, while DRAM is the small, contended tier the placement
    policies fight over.
    """

    def __init__(self, dram: MemoryDevice, nvm: MemoryDevice):
        if dram.kind is not DeviceKind.DRAM:
            raise ValueError(f"dram device has kind {dram.kind}")
        if nvm.kind is not DeviceKind.NVM:
            raise ValueError(f"nvm device has kind {nvm.kind}")
        self.dram = dram
        self.nvm = nvm
        self._devices = {dram.name: dram, nvm.name: nvm}
        self._allocators = {
            dram.name: FreeListAllocator(dram.capacity_bytes),
            nvm.name: FreeListAllocator(nvm.capacity_bytes),
        }
        self._placements: dict[int, Placement] = {}
        self._objects: dict[int, Placeable] = {}
        #: Monotonic placement version: bumped whenever any object's
        #: residency changes (allocate / move / free).  Cheap change
        #: detection for callers that snapshot placements (the executor's
        #: dispatch loop reuses its residency pass while this holds).
        self._version = 0
        #: uids whose DRAM copy has been written since promotion.  A clean
        #: DRAM resident still matches its NVM shadow, so evicting it needs
        #: no copy — the write-back optimization real tiering runtimes use.
        self._dirty: set[int] = set()
        #: Optional telemetry registry (attached per run when enabled).
        self.metrics: "MetricsRegistry | None" = None

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Enable placement-churn instrumentation on this machine and its
        per-device allocators (telemetry plane)."""
        self.metrics = registry
        for name, alloc in self._allocators.items():
            alloc.attach_metrics(registry, name)
        names = list(self._devices)
        self._allocations = {
            name: bind(registry.counter, "hms_allocations_total", {"device": name},
                       "Objects placed on each tier")
            for name in names
        }
        self._moves = {
            (src, dst): bind(registry.counter, "hms_moves_total", {"src": src, "dst": dst},
                             "Placement flips between tiers")
            for src in names
            for dst in names
            if src != dst
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def device_of(self, obj: Placeable) -> MemoryDevice:
        """The device the object currently resides on."""
        return self._devices[self._placements[obj.uid].device]

    def in_dram(self, obj: Placeable) -> bool:
        return self._placements[obj.uid].device == self.dram.name

    def is_placed(self, obj: Placeable) -> bool:
        return obj.uid in self._placements

    def dram_free_bytes(self) -> int:
        return self._allocators[self.dram.name].free_bytes

    def dram_used_bytes(self) -> int:
        return self._allocators[self.dram.name].used_bytes

    def nvm_used_bytes(self) -> int:
        return self._allocators[self.nvm.name].used_bytes

    def dram_fits(self, size: int) -> bool:
        return self._allocators[self.dram.name].fits(size)

    def is_dirty(self, obj: Placeable) -> bool:
        """Whether the object's DRAM copy diverged from its NVM shadow."""
        return obj.uid in self._dirty

    def mark_dirty(self, obj: Placeable) -> None:
        """Record a write to a DRAM-resident object."""
        if self._placements[obj.uid].device == self.dram.name:
            self._dirty.add(obj.uid)

    def objects_in_dram(self) -> list[Placeable]:
        """Every DRAM-resident object, in one pass over the placements."""
        dram_name = self.dram.name
        return [
            self._objects[uid]
            for uid, pl in self._placements.items()
            if pl.device == dram_name
        ]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def allocate(self, obj: Placeable, device: MemoryDevice | str | None = None) -> Placement:
        """Place a new object; defaults to the NVM backing tier."""
        if obj.uid in self._placements:
            raise ValueError(f"object {obj.uid} is already placed")
        name = self._device_name(device) if device is not None else self.nvm.name
        offset = self._allocators[name].alloc(obj.size_bytes)
        pl = Placement(name, offset, obj.size_bytes)
        self._placements[obj.uid] = pl
        self._objects[obj.uid] = obj
        self._version += 1
        if self.metrics is not None:
            self._allocations[name]().inc()
        return pl

    def move(self, obj: Placeable, device: MemoryDevice | str) -> Placement:
        """Re-place the object on ``device`` (no-op if already there).

        Raises :class:`OutOfMemoryError` when the destination cannot hold
        the object; the caller (placement policy) is responsible for
        evicting first.
        """
        name = self._device_name(device)
        old = self._placements[obj.uid]
        if old.device == name:
            return old
        offset = self._allocators[name].alloc(obj.size_bytes)
        self._allocators[old.device].free(old.offset)
        pl = Placement(name, offset, obj.size_bytes)
        self._placements[obj.uid] = pl
        self._version += 1
        # A fresh DRAM copy starts clean; leaving DRAM drops dirty state.
        self._dirty.discard(obj.uid)
        if self.metrics is not None:
            self._moves[old.device, name]().inc()
        return pl

    def lose_capacity(
        self, device: MemoryDevice | str, nbytes: int
    ) -> tuple[int, list[tuple[Placeable, bool]]]:
        """Permanently shrink ``device`` by up to ``nbytes`` (fault event).

        Free space goes first; when that is not enough on the DRAM tier,
        residents are *emergency-evicted* to the NVM backing tier (largest
        first, so the fewest objects move) until the loss is covered.
        Returns ``(bytes_actually_lost, evicted)`` where each evicted
        entry is ``(object, was_dirty)`` — dirty evictees diverged from
        their NVM shadow, so the caller owes a write-back copy for them.

        The NVM backing tier never evicts (there is nowhere further down
        to go): its loss is clamped to its free space.
        """
        name = self._device_name(device)
        alloc = self._allocators[name]
        target = max(0, int(nbytes))
        removed = alloc.reduce_capacity(target)
        evicted: list[tuple[Placeable, bool]] = []
        if name == self.dram.name and removed < target:
            residents = sorted(
                self.objects_in_dram(), key=lambda o: (-o.size_bytes, o.uid)
            )
            for obj in residents:
                if removed >= target:
                    break
                was_dirty = self.is_dirty(obj)
                self.move(obj, self.nvm)
                evicted.append((obj, was_dirty))
                removed += alloc.reduce_capacity(target - removed)
        return removed, evicted

    # ------------------------------------------------------------------
    def _device_name(self, device: MemoryDevice | str) -> str:
        name = device.name if isinstance(device, MemoryDevice) else device
        if name not in self._devices:
            raise KeyError(f"unknown device {name!r}")
        return name

    def check_invariants(self) -> None:
        for alloc in self._allocators.values():
            alloc.check_invariants()
        assert self._placements.keys() == self._objects.keys(), "placement/object uids differ"
        for uid, pl in self._placements.items():
            assert pl.size == self._objects[uid].size_bytes, f"object {uid}: size mismatch"
            alloc = self._allocators[pl.device]
            assert alloc._allocated.get(pl.offset) == alloc._round_up(pl.size), (
                f"object {uid}: offset {pl.offset} not allocated on {pl.device}"
            )
        for uid in self._dirty:
            pl = self._placements.get(uid)
            assert pl is not None and pl.device == self.dram.name, f"dirty object {uid} not in DRAM"
