"""Library logging.

Standard library-pattern setup: everything logs under the ``repro``
namespace with a ``NullHandler`` attached, so the library is silent unless
the application opts in::

    import logging
    logging.getLogger("repro").addHandler(logging.StreamHandler())
    logging.getLogger("repro").setLevel(logging.DEBUG)

The interesting streams:

- ``repro.core.manager`` — replans, scope choices, migrations issued,
  skepticism/throttle adjustments, adaptation triggers;
- ``repro.profiling.calibration`` — measured platform constants.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger"]

_root = logging.getLogger("repro")
_root.addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """Logger under the ``repro`` namespace (``name`` may include it)."""
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)

