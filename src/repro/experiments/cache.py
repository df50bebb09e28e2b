"""On-disk content-addressed result cache for simulated runs.

Results live as one file per :meth:`RunSpec.cache_key` under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), in either of two
formats:

- ``<key>.json`` — plain canonical JSON (the default, human-greppable);
- ``<key>.jsonz`` — a 4-byte magic/version header (``RPZ1``) followed by
  the gzip-compressed canonical JSON.  Opt in per instance
  (``ResultCache(binary=True)``); sweep-sized summaries compress ~10x and
  cost proportionally less cache I/O time.

Readers understand both formats regardless of the write preference, and a
corrupt or truncated entry degrades to a miss, never an error: the torn
file is *quarantined* — renamed to ``<entry>.bad`` — so it stops
shadowing the key and a fresh result can be re-cached under it (a
long-lived server must survive a torn write indefinitely, not re-read it
forever).  Because the key already mixes in the code/model version salt,
a model change simply makes old entries unreachable — no explicit
migration needed.

Writes go through a temp file + ``os.replace`` so concurrent sweeps
(including ``run_many`` worker fan-out) never observe torn entries; a
successful put removes the other-format twin of the same key so each key
has one authoritative entry.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "ResultCache",
    "BINARY_MAGIC",
    "cache_dir",
    "get_cache",
    "resolve_cache",
    "set_cache_enabled",
    "cache_enabled",
]

#: Header of a binary cache entry: format tag + version digit.  Bump the
#: digit if the framing (not the JSON inside) ever changes.
BINARY_MAGIC = b"RPZ1"


def cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


class ResultCache:
    """A directory of per-key result payloads with hit/miss statistics.

    ``binary`` selects the *write* format; reads always accept both.
    """

    def __init__(self, path: Path | str | None = None, binary: bool = False):
        self.path = Path(path).expanduser() if path is not None else cache_dir()
        self.binary = bool(binary)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _entry(self, key: str) -> Path:
        return self.path / f"{key}.json"

    def _binary_entry(self, key: str) -> Path:
        return self.path / f"{key}.jsonz"

    def _all_entries(self) -> Iterable[Path]:
        yield from self.path.glob("*.json")
        yield from self.path.glob("*.jsonz")

    @staticmethod
    def _decode_binary(blob: bytes) -> dict[str, Any] | None:
        """Payload from a binary entry, or ``None`` if it is not one /
        is corrupt (the caller degrades to a miss)."""
        if not blob.startswith(BINARY_MAGIC):
            return None
        try:
            return json.loads(gzip.decompress(blob[len(BINARY_MAGIC) :]))
        except (OSError, EOFError, ValueError):
            return None

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupt/truncated entry aside as ``<entry>.bad`` so it
        stops shadowing its key (best-effort; losing the race to a
        concurrent writer or pruner is fine)."""
        try:
            os.replace(entry, entry.with_name(entry.name + ".bad"))
            self.quarantined += 1
        except OSError:
            pass

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None`` on a miss.

        Missing entries miss; present-but-unreadable entries of either
        format (truncated RPZ1 blob, torn JSON write) are quarantined to
        ``.bad`` and miss — a long-lived server never raises here and
        never re-reads the same corpse."""
        binary_entry = self._binary_entry(key)
        try:
            blob = binary_entry.read_bytes()
        except OSError:
            blob = None
        payload = self._decode_binary(blob) if blob is not None else None
        if blob is not None and payload is None:
            self._quarantine(binary_entry)
        if payload is None:
            entry = self._entry(key)
            try:
                text = entry.read_text(encoding="utf-8")
            except OSError:
                self.misses += 1
                return None
            try:
                payload = json.loads(text)
            except ValueError:
                self._quarantine(entry)
                self.misses += 1
                return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically store ``payload`` under ``key`` in the configured
        format, superseding any other-format entry for the same key."""
        self.path.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        if self.binary:
            entry = self._binary_entry(key)
            stale = self._entry(key)
            # mtime=0 keeps equal payloads byte-identical across writes.
            blob = BINARY_MAGIC + gzip.compress(blob, mtime=0)
        else:
            entry = self._entry(key)
            stale = self._binary_entry(key)
        # One temp name per writer (process and thread): server pool
        # threads share a pid and may put the same key at once.
        tmp = entry.with_name(
            f"{entry.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, entry)
        finally:
            tmp.unlink(missing_ok=True)
        stale.unlink(missing_ok=True)
        self.puts += 1

    def prune(
        self,
        max_entries: int | None = None,
        max_age_s: float | None = None,
        now: float | None = None,
    ) -> int:
        """Evict stale entries (both formats); returns files removed.

        ``max_age_s`` drops entries whose file mtime is older than that
        many seconds; ``max_entries`` then keeps only the most recently
        touched N entries (LRU by mtime, mtime ties broken by file name so
        the survivor set is deterministic).  ``now`` is the reference
        clock for the age cutoff — injectable so age-based eviction is
        testable without sleeping; ``None`` reads the wall clock.
        Entries that vanish mid-scan (a concurrent prune) are skipped
        silently.
        """
        stamped: list[tuple[float, str, Path]] = []
        for entry in self._all_entries():
            try:
                stamped.append((entry.stat().st_mtime, entry.name, entry))
            except OSError:
                continue
        stamped.sort(key=lambda s: (s[0], s[1]), reverse=True)  # newest first

        doomed: list[Path] = []
        if max_age_s is not None:
            cutoff = (time.time() if now is None else now) - max_age_s
            while stamped and stamped[-1][0] < cutoff:
                doomed.append(stamped.pop()[2])
        if max_entries is not None and len(stamped) > max_entries:
            doomed.extend(e for _, _, e in stamped[max_entries:])

        removed = 0
        for entry in doomed:
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    def entries(self) -> int:
        return sum(1 for _ in self._all_entries())

    def size_bytes(self) -> int:
        """Total size of every entry; entries that vanish mid-scan
        (concurrent prune or put) are skipped."""
        total = 0
        for entry in self._all_entries():
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return total

    def stats(self) -> dict[str, Any]:
        n_binary = sum(1 for _ in self.path.glob("*.jsonz"))
        return {
            "path": str(self.path),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "quarantined": self.quarantined,
            "entries": self.entries(),
            "binary_entries": n_binary,
            "size_bytes": self.size_bytes(),
        }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"cache {s['path']}: {s['hits']} hits / {s['misses']} misses "
            f"this session, {s['entries']} entries "
            f"({s['binary_entries']} binary, {s['size_bytes']} B)"
        )


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------
_ENABLED = True
_CACHES: dict[Path, ResultCache] = {}


def set_cache_enabled(enabled: bool) -> None:
    """Process-wide switch (the CLI's ``--no-cache``)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def cache_enabled() -> bool:
    return _ENABLED and not os.environ.get("REPRO_NO_CACHE")


def get_cache() -> ResultCache | None:
    """The default cache for the current ``REPRO_CACHE_DIR``, or ``None``
    when caching is disabled.  One instance per directory, so hit/miss
    statistics accumulate across calls."""
    if not cache_enabled():
        return None
    path = cache_dir()
    cache = _CACHES.get(path)
    if cache is None:
        cache = _CACHES[path] = ResultCache(path)
    return cache


def resolve_cache(cache: ResultCache | None | bool) -> ResultCache | None:
    """A cache argument as callers pass it: an instance is used as is,
    ``None``/``True`` mean the process default (:func:`get_cache`) and
    ``False`` disables caching."""
    if cache is False:
        return None
    if cache is None or cache is True:
        return get_cache()
    return cache
