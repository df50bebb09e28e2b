"""Full-size headline regression: the reproduction's central claims.

Marked slow: runs the complete roster at full problem sizes (~30 s).
These are the numbers README and EXPERIMENTS.md quote.
"""

import statistics

import pytest

from repro.experiments.runner import execute_spec
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled, nvm_latency_scaled

pytestmark = [pytest.mark.integration, pytest.mark.slow]

ROSTER = (
    "cg", "heat", "cholesky", "lu", "sparselu", "health", "nbody",
    "mg", "fft", "strassen", "randomdag", "kmeans", "phaseshift",
)


@pytest.fixture(scope="module")
def headline():
    rows = {}
    for name in ROSTER:
        for label, nvm in (
            ("bw-1/2", nvm_bandwidth_scaled(0.5)),
            ("lat-4x", nvm_latency_scaled(4.0)),
        ):
            def full(policy):
                return execute_spec(
                    RunSpec(workload=name, policy=policy, nvm=nvm, fast=False)
                ).makespan

            ref = full("dram-only")
            rows[(name, label)] = {
                "nvm": full("nvm-only") / ref,
                "xmem": full("xmem") / ref,
                "tahoe": full("tahoe") / ref,
            }
    return rows


def test_never_worse_than_nvm_only(headline):
    for key, r in headline.items():
        assert r["tahoe"] <= r["nvm"] + 0.02, (key, r)


def test_competitive_with_xmem_on_most_cells(headline):
    wins = sum(1 for r in headline.values() if r["tahoe"] <= r["xmem"] + 0.02)
    assert wins >= 0.75 * len(headline)


def test_mean_gap_closure_substantial(headline):
    closures = [
        (r["nvm"] - r["tahoe"]) / (r["nvm"] - 1.0)
        for r in headline.values()
        if r["nvm"] > 1.05
    ]
    assert statistics.mean(closures) > 0.5


def test_gap_magnitudes_in_paper_band(headline):
    for key, r in headline.items():
        assert 0.95 <= r["nvm"] <= 9.0, (key, r)
