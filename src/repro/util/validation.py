"""Small argument-validation helpers.

The simulator is configuration-heavy; failing fast with a precise message at
construction time beats a NaN surfacing three layers deep in the executor.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import fields
from typing import Any, Iterable, Mapping, TypeVar

__all__ = [
    "require",
    "require_positive",
    "require_nonnegative",
    "resolve_plane",
    "did_you_mean",
]

_C = TypeVar("_C")


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def require_nonnegative(value: float, name: str) -> None:
    """Raise unless ``value`` is >= 0."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def did_you_mean(name: str, known: Iterable[str]) -> str:
    """The ``"; did you mean 'a' or 'b'?"`` suffix for an unknown
    ``name`` (up to three close matches from ``known``), or ``""``."""
    suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
    return f"; did you mean {' or '.join(map(repr, suggestions))}?" if suggestions else ""


def resolve_plane(value: Any, cls: type[_C], plane: str, label: str) -> _C | None:
    """Normalize a spec plane's value into a ``cls`` config (or ``None``
    = off).

    Accepts ``None``/``False`` (off), ``True``/``"on"`` (defaults), a
    mapping or JSON-object string of ``cls`` field overrides, or a ready
    ``cls`` instance.  ``plane`` and ``label`` name the plane in error
    messages (``"telemetry"``, ``"telemetry config"``).
    """
    if value is None or value is False:
        return None
    if value is True:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        text = value.strip()
        if text.lower() in ("on", "default", "true", "1"):
            return cls()
        if text.lower() in ("off", "false", "0", ""):
            return None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"bad {plane} spec {value!r}: expected 'on', 'off' or a "
                f"JSON object of {cls.__name__} fields ({exc})"
            ) from None
        return resolve_plane(data, cls, plane, label)
    if isinstance(value, Mapping):
        known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        unknown = sorted(set(value) - known)
        if unknown:
            raise ValueError(f"unknown {label} fields {unknown} (known: {sorted(known)})")
        return cls(**dict(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a {label}")
