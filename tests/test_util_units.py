"""Unit-convention helpers."""

import pytest

from repro.util.units import (
    CACHELINE_BYTES,
    GBPS,
    GIB,
    KIB,
    MIB,
    MS,
    NS,
    US,
    bytes_per_second,
)


def test_cacheline_is_64_bytes():
    assert CACHELINE_BYTES == 64


def test_binary_size_ladder():
    assert KIB == 1024
    assert MIB == 1024 * KIB
    assert GIB == 1024 * MIB


def test_time_ladder():
    assert NS == pytest.approx(1e-9)
    assert US == pytest.approx(1e-6)
    assert MS == pytest.approx(1e-3)


def test_bytes_per_second_decimal_gigabytes():
    assert bytes_per_second(10.0) == pytest.approx(10 * GBPS)
    assert bytes_per_second(0.5) == pytest.approx(5e8)

