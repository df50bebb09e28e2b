"""A thread-safe bounded LRU map for the process-global memos.

The digital-twin server runs jobs on a thread pool.  A hand-rolled
``d[k] = d.pop(k)`` bump or ``d.pop(next(iter(d)))`` eviction on a plain
dict is not atomic: two threads bumping one key raise ``KeyError``, and
an eviction iterating while another thread inserts raises
``RuntimeError``.  Every operation here holds one lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["BoundedLRU"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """Map of at most ``maxsize`` entries: a hit moves its key to the
    back, an insert past the bound evicts from the front."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: K) -> V | None:
        """The value under ``key``, or ``None`` on a miss."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)
