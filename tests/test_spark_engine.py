"""Spark BSP engine vs the local reference engine — exact equivalence.

Both engines draw every Bernoulli through the same hash keys and do all
float math in the shared kernels, so given the same model and seeds
they must produce *identical* adoption logs, not just similar σ.
"""
import numpy as np
import pytest

from repro.data.datasets import make_dataset
from repro.diffusion.local import simulate
from repro.diffusion.sigma import sigma_from_adoption_rows
from repro.diffusion.spark_engine import simulate_spark


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


def _adoption_set(local_res, n_samples):
    out = set()
    for s in range(n_samples):
        for u, x in zip(*np.nonzero(local_res.adopt_t[s])):
            out.add((s, int(u), int(x), int(local_res.adopt_t[s][u, x])))
    return out


class TestEngineEquivalence:
    def test_dynamic_mode_identical(self, spark, small):
        seeds = [(0, 0, 1), (5, 2, 1), (7, 1, 2)]
        loc = simulate(small, seeds, T=2, n_samples=2)
        sp = simulate_spark(spark, small, seeds, T=2, n_samples=2)
        got = set(map(tuple, sp.adoptions[["sample", "user", "item", "t"]].to_numpy()))
        assert got == _adoption_set(loc, 2)
        assert sp.sigma == pytest.approx(loc.sigma)
        assert np.allclose(sp.sigma_by_t, loc.sigma_by_t)

    def test_frozen_mode_identical(self, spark, small):
        seeds = [(0, 0, 1), (3, 1, 1)]
        loc = simulate(small, seeds, T=1, n_samples=2, frozen=True)
        sp = simulate_spark(spark, small, seeds, T=1, n_samples=2, frozen=True)
        got = set(map(tuple, sp.adoptions[["sample", "user", "item", "t"]].to_numpy()))
        assert got == _adoption_set(loc, 2)

    def test_subgraph_model_identical(self, spark, small):
        """A market submodel starts users from their original-id weights."""
        sub = small.subgraph(np.arange(60, 90))
        seeds = [(u, x, 1) for u in (28, 10, 22) for x in range(3)]
        loc = simulate(sub, seeds, T=1, n_samples=4)
        sp = simulate_spark(spark, sub, seeds, T=1, n_samples=4)
        got = set(map(tuple, sp.adoptions[["sample", "user", "item", "t"]].to_numpy()))
        assert got == _adoption_set(loc, 4)

    def test_sigma_helper_consistent(self, spark, small):
        seeds = [(0, 0, 1)]
        sp = simulate_spark(spark, small, seeds, T=1, n_samples=2)
        assert sp.sigma == pytest.approx(
            sigma_from_adoption_rows(sp.adoptions, small.importance, 2)
        )

    def test_empty_seed_group(self, spark, small):
        sp = simulate_spark(spark, small, [], T=1, n_samples=2)
        assert sp.sigma == 0.0
        assert len(sp.adoptions) == 0
