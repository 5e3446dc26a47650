"""Spark engine vs the local reference engine — exact equivalence.

The Spark engine runs the local engine on shards of the Monte-Carlo
samples, each with its global sample offset, and takes σ from the same
function; given the same model and seeds it must produce the *same*
adoption log and the same σ bits, not just similar values.
"""
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import repro.diffusion.local as local_engine
from repro.data.datasets import make_dataset
from repro.diffusion.local import simulate
from repro.diffusion.sigma import sigma_from_adopt_t
from repro.diffusion.spark_engine import simulate_spark

ROOT = Path(__file__).resolve().parents[1]

# High out-degree yelp_lite users, one seed per promotion (t = 1 … 5).
_YELP_SEEDS = [(730, 0, 1), (769, 3, 1), (397, 1, 2), (100, 5, 3), (35, 0, 4), (656, 2, 5)]


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


@pytest.fixture(scope="module")
def yelp():
    return make_dataset("yelp_lite").model


def _adoption_set(local_res):
    s, u, x = np.nonzero(local_res.adopt_t)
    return {
        (int(a), int(b), int(c), int(local_res.adopt_t[a, b, c])) for a, b, c in zip(s, u, x)
    }


def _log_set(sp):
    log = sp.adoptions[["sample", "user", "item", "t"]].to_numpy(np.int64)
    got = {tuple(int(v) for v in row) for row in log}
    assert len(got) == len(log)  # each adoption logged once
    return got


def _assert_same(sp, loc):
    assert _log_set(sp) == _adoption_set(loc)
    assert sp.sigma == loc.sigma
    assert np.array_equal(sp.sigma_by_t, loc.sigma_by_t)


class TestEngineEquivalence:
    def test_dynamic_mode_identical(self, spark, small):
        seeds = [(0, 0, 1), (5, 2, 1), (7, 1, 2)]
        loc = simulate(small, seeds, T=2, n_samples=2)
        sp = simulate_spark(spark, small, seeds, T=2, n_samples=2)
        _assert_same(sp, loc)

    def test_frozen_mode_identical(self, spark, small):
        seeds = [(0, 0, 1), (3, 1, 1)]
        loc = simulate(small, seeds, T=1, n_samples=2, frozen=True)
        sp = simulate_spark(spark, small, seeds, T=1, n_samples=2, frozen=True)
        _assert_same(sp, loc)

    def test_subgraph_model_identical(self, spark, small):
        """A market submodel starts users from their original-id weights."""
        sub = small.subgraph(np.arange(60, 90))
        seeds = [(u, x, 1) for u in (28, 10, 22) for x in range(3)]
        loc = simulate(sub, seeds, T=1, n_samples=4)
        sp = simulate_spark(spark, sub, seeds, T=1, n_samples=4)
        _assert_same(sp, loc)

    def test_sigma_helper_consistent(self, spark, small):
        """σ and σ_by_t are the shared helper's values on the logged adoptions."""
        seeds = [(0, 0, 1), (4, 1, 2)]
        sp = simulate_spark(spark, small, seeds, T=2, n_samples=3)
        adopt_t = np.zeros((3, small.n_users, small.n_items), np.int16)
        for s, u, x, t in _log_set(sp):
            adopt_t[s, u, x] = t
        sigma, by_t = sigma_from_adopt_t(adopt_t, small.importance, 2)
        assert sp.sigma == sigma
        assert np.array_equal(sp.sigma_by_t, by_t)

    def test_empty_seed_group(self, spark, small):
        sp = simulate_spark(spark, small, [], T=1, n_samples=2)
        assert sp.sigma == 0.0
        assert len(sp.adoptions) == 0

    @pytest.mark.parametrize("T", [3, 5])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_yelp_lite_identical(self, spark, yelp, T, frozen):
        seeds = [s for s in _YELP_SEEDS if s[2] <= T]
        loc = simulate(yelp, seeds, T=T, n_samples=4, frozen=frozen)
        sp = simulate_spark(spark, yelp, seeds, T=T, n_samples=4, frozen=frozen)
        assert loc.sigma_by_t[1:].all()  # adoptions in every promotion
        _assert_same(sp, loc)

    @pytest.mark.parametrize("M", [1, 5, 7, "2p"])
    def test_shard_boundaries(self, spark, small, M):
        """Any split of the samples into shards gives the local run."""
        if M == "2p":
            M = 2 * spark.sparkContext.defaultParallelism
        seeds = [(0, 0, 1), (5, 2, 1), (7, 1, 2), (12, 1, 3)]
        loc = simulate(small, seeds, T=3, n_samples=M)
        sp = simulate_spark(spark, small, seeds, T=3, n_samples=M)
        _assert_same(sp, loc)

    def test_trial_salt(self, spark, small):
        seeds = [(0, 0, 1), (5, 2, 1), (7, 1, 2)]
        loc = simulate(small, seeds, T=2, n_samples=5, trial_salt=11)
        sp = simulate_spark(spark, small, seeds, T=2, n_samples=5, trial_salt=11)
        assert not np.array_equal(loc.adopt_t, simulate(small, seeds, T=2, n_samples=5).adopt_t)
        _assert_same(sp, loc)


class TestPickling:
    def test_driver_only_wrappers_do_not_reach_the_workers(self, spark, small, monkeypatch):
        """The workers import the engine; they never unpickle the driver's functions.

        ``simulate`` and ``_run_block`` are replaced, wherever a ``repro``
        module holds them, by wrappers from a module that only the
        driver's ``sys.modules`` knows, as a profiler or tracer would.
        Spark would pickle such a wrapper by reference, and a worker
        could not import it.
        """
        seeds = [(0, 0, 1), (5, 2, 1), (7, 1, 2)]
        loc = simulate(small, seeds, T=2, n_samples=4)

        wrappers = types.ModuleType("driver_only_wrappers")
        monkeypatch.setitem(sys.modules, wrappers.__name__, wrappers)
        for name in ("simulate", "_run_block"):
            orig = getattr(local_engine, name)

            def wrapper(*args, _orig=orig, **kwargs):
                return _orig(*args, **kwargs)

            wrapper.__module__ = wrappers.__name__
            wrapper.__name__ = wrapper.__qualname__ = name
            setattr(wrappers, name, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, wrapper)

        sp = simulate_spark(spark, small, seeds, T=2, n_samples=4)
        _assert_same(sp, loc)


def test_spark_submit_without_pythonpath(tmp_path):
    """``spark-submit jobs/run_all_tables.py --quick --table T1`` certifies its cell.

    It runs from an empty directory with no ``PYTHONPATH``, so neither
    the driver nor the workers find ``repro`` except through the job
    itself, and the Spark engine must reproduce the local adoption log,
    σ and ``σ_by_t`` of the certified cell.
    """
    import pyspark

    submit = shutil.which("spark-submit") or str(
        Path(pyspark.__file__).parent / "bin" / "spark-submit"
    )
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")
    }
    env["PYSPARK_PYTHON"] = env["PYSPARK_DRIVER_PYTHON"] = sys.executable
    env["SPARK_LOCAL_DIRS"] = str(tmp_path)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    out = tmp_path / "tables.md"
    proc = subprocess.run(
        [
            submit, "--driver-memory", "1g",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.driver.host=127.0.0.1",
            str(ROOT / "jobs" / "run_all_tables.py"),
            "--quick", "--table", "T1", "--out", str(out),
        ],
        cwd=run_dir, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "must match exactly): equal." in out.read_text()
