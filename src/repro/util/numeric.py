"""Float reductions whose bits do not depend on the Python version."""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import Iterable

import numpy as np

__all__ = ["running_total"]


def running_total(values: Iterable[float]) -> float:
    """``0 + values[0] + values[1] + ...``, added left to right.

    This is what ``sum()`` returns through Python 3.11, the int ``0`` of
    an empty input included (a pinned fault summary reports it).  From
    3.12 on, ``sum()`` compensates each float addition's rounding error
    (Neumaier summation), so its last bits depend on the interpreter;
    every float total that reaches a pinned output uses this instead.
    An array is added by ``np.cumsum``, which also runs left to right,
    and an empty array totals ``0.0``.
    """
    if isinstance(values, np.ndarray):
        # Starting from values[0] instead of 0 differs only in the sign
        # of an all-negative-zero total, which the final + 0.0 clears.
        return float(np.cumsum(values)[-1]) + 0.0 if len(values) else 0.0
    return deque(accumulate(values, initial=0), maxlen=1)[0]
