"""Test-scope tweaks and shared fixtures.

Small shuffle parallelism for tiny test data: the root conftest reads
``SPARK_SHUFFLE_PARTITIONS`` when the session fixture first creates the
SparkSession; tests run on toy inputs where 64 partitions would be pure
scheduling overhead.
"""
import os

import numpy as np
import pandas as pd
import pytest

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")


@pytest.fixture
def local_as_spark():
    """A stand-in for ``simulate_spark``: the local engine's run as a Spark result.

    Its log, σ and ``σ_by_t`` equal the local engine's by construction,
    so a test can alter one of them and see what the check catches.
    """
    from repro.diffusion.local import simulate
    from repro.diffusion.spark_engine import SparkSimResult

    def run(model, seeds, T, n_samples):
        res = simulate(model, seeds, T, n_samples)
        s, u, x = np.nonzero(res.adopt_t)
        log = pd.DataFrame({"sample": s, "user": u, "item": x, "t": res.adopt_t[s, u, x]})
        return SparkSimResult(log, res.sigma, res.sigma_by_t.copy())

    return run
