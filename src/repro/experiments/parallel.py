"""Parallel, cached execution of :class:`RunSpec` batches.

:func:`run_many` is the engine under every experiment, sweep and seed
fan-out: it deduplicates identical specs, satisfies what it can from the
on-disk result cache, fans the misses out over a
``concurrent.futures.ProcessPoolExecutor``, and returns results in input
order.  One crashed run never kills the sweep — it comes back as a
structured failure :class:`RunResult` (``ok=False``) unless
``strict=True`` asks for the exception to be re-raised.

The simulator runs in virtual time and is deterministic per seed, so
serial, parallel and warm-cache executions of the same specs produce
identical result digests.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Sequence

from repro.experiments.cache import ResultCache, resolve_cache
from repro.experiments.runner import run_and_summarize
from repro.experiments.spec import RunResult, RunSpec

__all__ = [
    "run_many",
    "execute_capturing",
    "get_default_workers",
    "set_default_workers",
]

#: Progress hook: ``callback(done, total, result)`` after each completion.
ProgressCallback = Callable[[int, int, RunResult], None]

_DEFAULT_WORKERS: int | None = None


def set_default_workers(n: int | None) -> None:
    """Process-wide default for ``run_many(workers=None)`` (the CLI's
    ``--jobs``)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = None if n is None else max(1, int(n))


def get_default_workers() -> int:
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def execute_capturing(spec: RunSpec) -> RunResult:
    """Worker entry point: never raises, returns a failure record instead.

    Public because every pool that executes specs — ``run_many``'s
    process fan-out and the digital-twin server's bounded worker pool —
    needs exactly this containment contract.
    """
    try:
        return run_and_summarize(spec)
    except BaseException as exc:  # noqa: BLE001 - containment is the contract
        if isinstance(exc, KeyboardInterrupt):
            raise
        return RunResult.failure(spec, exc)


def run_many(
    specs: Iterable[RunSpec],
    workers: int | None = None,
    cache: ResultCache | None | bool = None,
    progress: ProgressCallback | None = None,
    strict: bool = False,
) -> list[RunResult]:
    """Execute a batch of specs; results come back in input order.

    - ``workers``: process count; ``None`` uses the CLI/env default
      (serial), ``1`` forces in-process execution.
    - ``cache``: a :class:`ResultCache`, ``None`` for the process default,
      or ``False`` to bypass caching entirely.
    - ``progress``: called as ``progress(done, total, result)`` after each
      spec completes (cache hits included).
    - ``strict``: re-raise the first failure instead of returning a
      failure record.

    Identical specs (same ``cache_key``) are executed once and share the
    result, so reference runs repeated across a sweep cost nothing even
    with the cache disabled.
    """
    specs = list(specs)
    total = len(specs)
    results: list[RunResult | None] = [None] * total
    store = resolve_cache(cache)
    done = 0

    def _finish(indices: Sequence[int], result: RunResult) -> None:
        nonlocal done
        for idx in indices:
            results[idx] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

    # Deduplicate by content address and satisfy cache hits first.
    by_key: dict[str, list[int]] = {}
    key_spec: dict[str, RunSpec] = {}
    for i, spec in enumerate(specs):
        key = spec.cache_key()
        by_key.setdefault(key, []).append(i)
        key_spec.setdefault(key, spec)

    pending: list[str] = []
    for key, indices in by_key.items():
        payload = store.get(key) if store is not None else None
        if payload is not None:
            _finish(indices, RunResult.from_payload(key_spec[key], payload))
        else:
            pending.append(key)

    n_workers = get_default_workers() if workers is None else max(1, int(workers))
    n_workers = min(n_workers, len(pending)) if pending else 1

    if pending and n_workers <= 1:
        for key in pending:
            result = execute_capturing(key_spec[key])
            _store(store, key, result)
            _finish(by_key[key], result)
    elif pending:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {pool.submit(execute_capturing, key_spec[key]): key for key in pending}
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in finished:
                    key = futures[fut]
                    try:
                        result = fut.result()
                    except BaseException as exc:  # pool/pickling breakage
                        result = RunResult.failure(key_spec[key], exc)
                    _store(store, key, result)
                    _finish(by_key[key], result)

    out = [r for r in results if r is not None]
    assert len(out) == total
    if strict:
        for r in out:
            r.raise_if_failed()
    return out


def _store(store: ResultCache | None, key: str, result: RunResult) -> None:
    # Failures are never cached: a transient crash must not poison reruns.
    if store is not None and result.ok:
        store.put(key, result.to_payload())
