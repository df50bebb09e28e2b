"""Deterministic random-number plumbing.

Every stochastic component (sampling profiler noise, random DAG generation,
random placement baseline) draws from a :class:`numpy.random.Generator`
spawned from a root seed, so whole experiments are reproducible bit-for-bit
from a single integer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_rng"]


# numpy initializes its Generator machinery lazily on first use — >10 ms
# of one-time module setup that would otherwise land inside the first
# *timed* consumer (the platform calibration run inside the data
# manager's first decision).  Touching it at import time keeps that
# library cost out of every measured runtime path.
np.random.Generator(np.random.PCG64(np.random.SeedSequence([0])))


def spawn_rng(seed: int | np.random.Generator | None, *key: int | str) -> np.random.Generator:
    """Return an independent generator derived from ``seed`` and a key path.

    ``key`` components namespace the stream (e.g. ``spawn_rng(s, "sampler", 3)``)
    so two components never consume from the same stream even when created in
    a different order.  Strings are hashed stably (FNV-1a) so the derivation
    does not depend on Python's randomized ``hash``.
    """
    if isinstance(seed, np.random.Generator):
        # Already a generator: derive a child deterministically from its
        # state (the parent stream advances).
        base = int(seed.integers(0, 2**63 - 1))
    else:
        base = 0 if seed is None else int(seed)
    words = [base & 0xFFFFFFFF, (base >> 32) & 0xFFFFFFFF]
    words.extend(_stable_hash(part) for part in key)
    return np.random.default_rng(np.random.SeedSequence(words))


def _stable_hash(part: int | str) -> int:
    if isinstance(part, int):
        return part & 0xFFFFFFFF
    h = 0x811C9DC5
    for byte in str(part).encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h
