"""Seeded spec generation for the benchmark workloads.

Every spec a seed can produce is drawn from a finite pool
(:func:`sweep_pool`, :func:`whatif_variants`, :func:`tiny_pool`), so each
one has a pinned payload digest in ``pinned.json``; ``pin.py``
regenerates that file.  A seed only picks *which* pool members a run
uses and in what order, never a value outside the pools.

Spec identity (:func:`spec_id`) hashes the canonical spec document
without the package-version salt, so a version bump alone does not
orphan the pins, while any change to what a spec describes does.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Iterator

from repro.experiments.spec import RunSpec, canonical_json
from repro.memory.presets import nvm_bandwidth_scaled
from repro.util.units import MIB

NVM = nvm_bandwidth_scaled(0.5)
MANAGED = "tahoe"
UNMANAGED = "nvm-only"

# ----------------------------------------------------------------------
# sweep-cold: closed-DAG rungs, each under both policies, plus streams
# ----------------------------------------------------------------------
#: Twelve variants per rung that share one task-graph shape (so every
#: seed sees the same work) but are distinct builds, so each row of a
#: round starts on a graph of its own with empty graph-attached memos.
VARIANTS = 12
#: ~1,000-task heat rung (10x10 tiles x 10 sweeps).
HEAT_1K = tuple(
    {"grid": 10, "iterations": 10, "hot_fraction": round(0.15 + 0.02 * k, 2)}
    for k in range(VARIANTS)
)
#: ~3,000-task heat rung (16x16 tiles x 12 sweeps = 3,072).
HEAT_3K = tuple(
    {"grid": 16, "iterations": 12, "hot_fraction": round(0.15 + 0.02 * k, 2)}
    for k in range(VARIANTS)
)
#: ~1,600-task sparselu (20x20 blocks, default fill pattern).
SPARSELU_1600 = tuple(
    {"n_blocks": 20, "time_per_flop": round(2e-12 * (0.85 + 0.025 * k), 16)}
    for k in range(VARIANTS)
)
#: ~800-task cg (16 chunks x 16 iterations, 3 tasks each).
CG_800 = tuple(
    {"n_chunks": 16, "iterations": 16, "vector_chunk_mib": 2.0 + 0.25 * k}
    for k in range(VARIANTS)
)
SWEEP_RUNGS = (
    ("heat", HEAT_1K),
    ("heat", HEAT_3K),
    ("sparselu", SPARSELU_1600),
    ("cg", CG_800),
)
#: Stream-mode specs per sweep round, and the arrival seeds they use.
#: Three, so a round has 11 specs and its median is a stream spec, not
#: the midpoint of two unlike rows.
STREAMS_PER_ROUND = 3
STREAM_SEEDS = tuple(range(12))


def closed_spec(workload: str, policy: str, overrides: dict[str, Any], **extra: Any) -> RunSpec:
    return RunSpec(
        workload=workload, policy=policy, nvm=NVM, fast=True,
        workload_overrides=overrides, **extra,
    )


def stream_spec(seed: int) -> RunSpec:
    """A ~5k-event open-system run: two tenants over small heat jobs."""
    return closed_spec(
        "heat", MANAGED, {"grid": 4, "iterations": 2},
        stream={
            "tenants": [
                {"name": "steady", "rate_hz": 900.0, "arrival": "poisson",
                 "credit_mib": 512.0},
                {"name": "bursty", "rate_hz": 500.0, "arrival": "burst",
                 "credit_mib": 256.0},
            ],
            "horizon_s": 2.0,
            "round_interval_s": 0.002,
            "lanes": 4,
            "seed": seed,
        },
    )


def sweep_round(rng: random.Random) -> list[RunSpec]:
    """One cold round: every rung under both policies, each row on a
    distinct graph structure, then the stream specs."""
    specs = []
    for workload, params in SWEEP_RUNGS:
        managed, unmanaged = rng.sample(params, 2)
        specs.append(closed_spec(workload, MANAGED, managed))
        specs.append(closed_spec(workload, UNMANAGED, unmanaged))
    specs.extend(stream_spec(s) for s in rng.sample(STREAM_SEEDS, STREAMS_PER_ROUND))
    return specs


# ----------------------------------------------------------------------
# twin-whatif: fixed ~1k-task bases, DRAM x NVM-bandwidth variants
# ----------------------------------------------------------------------
#: The managed base is the only graph tahoe plans on: a second managed
#: graph in the same process gives history-dependent results (NOTES.md).
WHATIF_BASES = (
    closed_spec("heat", MANAGED, {"grid": 10, "iterations": 10}),
    closed_spec("heat", UNMANAGED, {"grid": 16, "iterations": 12}),
    closed_spec("sparselu", UNMANAGED, {"n_blocks": 20}),
)
#: Request pattern over the bases: two managed requests per unmanaged
#: one, so the median sits inside the managed latency cluster.
WHATIF_PATTERN = (0, 0, 1, 0, 0, 2)
WHATIF_DRAM = tuple((96 + 64 * k) * MIB for k in range(12))
WHATIF_BW_SCALE = tuple(round(0.55 + 0.05 * k, 2) for k in range(24))
DRAM_ORDER = (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11)


def whatif_overrides(dram_bytes: int, bw_scale: float) -> dict[str, Any]:
    return {
        "memory.dram_bytes": dram_bytes,
        "nvm.read_bandwidth": NVM.read_bandwidth * bw_scale,
        "nvm.write_bandwidth": NVM.write_bandwidth * bw_scale,
    }


def whatif_variants(base: RunSpec) -> list[tuple[dict[str, Any], RunSpec]]:
    return [
        (overrides, base.with_overrides(**overrides))
        for dram_bytes in WHATIF_DRAM
        for scale in WHATIF_BW_SCALE
        for overrides in (whatif_overrides(dram_bytes, scale),)
    ]


def whatif_requests(rng: random.Random) -> Iterator[tuple[int, dict[str, Any]]]:
    """Endless ``(base index, overrides)`` requests.

    Visit ``k = 24q + r`` of a base uses DRAM size ``DRAM_ORDER[r mod
    12]`` and NVM bandwidth ``(r + q + offset) mod 24``, with a seeded
    offset per base: every run sees the same mix of DRAM sizes (the main
    cost driver; the order spreads small and large sizes over any prefix,
    so a run that stops mid-cycle is not skewed) and of first-seen
    bandwidths (which miss the executor's per-device timing memo), and
    the first 288 visits are distinct cache keys."""
    offsets = [rng.randrange(len(WHATIF_BW_SCALE)) for _ in WHATIF_BASES]
    visits = [0] * len(WHATIF_BASES)
    while True:
        for i in WHATIF_PATTERN:
            q, r = divmod(visits[i], len(WHATIF_BW_SCALE))
            visits[i] += 1
            scale = WHATIF_BW_SCALE[(r + q + offsets[i]) % len(WHATIF_BW_SCALE)]
            dram = WHATIF_DRAM[DRAM_ORDER[r % len(WHATIF_DRAM)]]
            yield i, whatif_overrides(dram, scale)


# ----------------------------------------------------------------------
# twin-hits: a pool of tiny specs, some pre-filled, some fresh
# ----------------------------------------------------------------------
TINY_CLOSED = (
    ("heat", {"grid": 4, "iterations": 2}),
    ("cg", {"n_chunks": 3, "iterations": 2}),
    ("sparselu", {"n_blocks": 5}),
)
TINY_SEEDS = tuple(range(200))
TINY_STREAM_SEEDS = tuple(range(80))
PREFILL = 128


def tiny_stream_spec(seed: int) -> RunSpec:
    return closed_spec(
        "heat", MANAGED, {"grid": 4, "iterations": 2},
        stream={"horizon_s": 0.2, "seed": seed},
    )


def tiny_pool() -> list[RunSpec]:
    specs = [
        closed_spec(workload, policy, overrides, seed=seed)
        for seed in TINY_SEEDS
        for workload, overrides in TINY_CLOSED
        for policy in (MANAGED, UNMANAGED)
    ]
    specs.extend(tiny_stream_spec(s) for s in TINY_STREAM_SEEDS)
    return specs


def hits_split(rng: random.Random) -> tuple[list[RunSpec], list[RunSpec]]:
    """(pre-filled specs, fresh specs in request order) for one seed."""
    specs = tiny_pool()
    rng.shuffle(specs)
    return specs[:PREFILL], specs[PREFILL:]


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
def spec_id(spec: RunSpec) -> str:
    """Version-salt-free identity of a spec (the pin table's key)."""
    return hashlib.sha256(canonical_json(spec.to_dict()).encode("utf-8")).hexdigest()[:20]


def payload_digest(payload: dict[str, Any]) -> str:
    """Digest of a result payload, ignoring the API's provenance fields."""
    body = {k: v for k, v in payload.items() if k not in ("cached", "error_type", "error")}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()[:24]


def sweep_pool() -> list[RunSpec]:
    """Every spec ``sweep_round`` can generate, in a fixed order."""
    specs = [
        closed_spec(workload, policy, overrides)
        for workload, params in SWEEP_RUNGS
        for overrides in params
        for policy in (MANAGED, UNMANAGED)
    ]
    specs.extend(stream_spec(s) for s in STREAM_SEEDS)
    return specs
