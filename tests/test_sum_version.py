"""Pinned outputs must not depend on the Python version's ``sum()``.

Through Python 3.11, ``sum()`` adds floats left to right.  From 3.12 on
it compensates each addition's rounding error (Neumaier summation), so
the same operands can total to different last bits.  The simulator's
float totals go through :func:`repro.util.numeric.running_total`, which
adds left to right on every version.  This module swaps ``builtins.sum``
for a Python rendering of 3.12's rule and requires the golden payloads
of a managed closed spec, a fault-injected spec and a stream spec.
"""

from __future__ import annotations

import builtins
import json
import math

import pytest

from repro.experiments.runner import run_and_summarize

from tests.test_perf_equivalence import (
    GOLDEN_PATH,
    SPOT_SPECS,
    _canonical_digest,
    reset_process_caches,
)

_builtin_sum = builtins.sum


def compensated_sum(iterable, start=0):
    """``sum()`` as CPython 3.12 computes it for ints and floats: exact
    ints until the first float, then Neumaier-compensated float adds,
    the compensation folded in at the end (or before a non-number)."""
    items = iter(iterable)
    total = start
    for item in items:
        if type(total) is int and type(item) in (int, bool):
            total += item
            continue
        total = total + item
        break
    else:
        return total
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    f, c = total, 0.0
    for item in items:
        if type(item) is float:
            t = f + item
            if abs(f) >= abs(item):
                c += (f - t) + item
            else:
                c += (item - t) + f
            f = t
        elif type(item) in (int, bool):
            f += float(item)
        else:
            if c and math.isfinite(c):
                f += c
            total = f + item
            for rest in items:
                total = total + rest
            return total
    if c and math.isfinite(c):
        f += c
    return f


def test_compensated_sum_differs_from_left_to_right(monkeypatch) -> None:
    from repro.util.numeric import running_total

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    tenths = [0.1] * 10
    assert compensated_sum(tenths) == 1.0
    assert running_total(tenths) == 0.9999999999999999
    assert running_total(iter(tenths)) == 0.9999999999999999
    assert compensated_sum([]) == 0 and type(compensated_sum([])) is int
    assert compensated_sum([1, 2, 3]) == 6


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("exp", ["e3", "e12", "e13"])
def test_golden_payload_under_compensated_sum(exp, goldens, monkeypatch) -> None:
    """e3 is a managed closed spec, e12 injects faults, e13 streams."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    reset_process_caches()
    payload = run_and_summarize(SPOT_SPECS[exp]).to_payload()
    assert _canonical_digest(payload) == goldens[exp]["payload_sha256"]
