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
from typing import Callable, Generic, Hashable, TypeVar

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

    def get(self, key: K, factory: Callable[[], V] | None = None) -> V | None:
        """The value under ``key``; on a miss, store and return
        ``factory()`` if one is given, else return ``None``."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            elif factory is not None:
                value = self._insert(key, factory())
            return value

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._insert(key, value)

    def _insert(self, key: K, value: V) -> V:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)
