"""Tests for the experiment harness (repro.experiments.harness)."""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import harness as H
from repro.params import DEFAULT


@pytest.fixture(scope="module")
def runner():
    return H.Runner(mc_eval=4, max_pairs=20)


class TestRunner:
    def test_run_caches(self, runner):
        a = runner.run("small100", "ps", 6, 2)
        b = runner.run("small100", "ps", 6, 2)
        assert a is b

    def test_cell_fields(self, runner):
        c = runner.run("small100", "ps", 6, 2)
        assert c.dataset == "small100" and c.method == "ps"
        assert c.sigma > 0 and c.seconds > 0 and c.seeds

    def test_unknown_method(self, runner):
        with pytest.raises(KeyError):
            runner.run("small100", "nope", 5, 2)

    def test_dataset_cache_by_params(self, runner, monkeypatch):
        """A cell with its own ``params`` builds no second dataset."""
        ds = runner.dataset("small100")
        assert ds is runner.dataset("small100")

        def no_build(*args, **kwargs):
            raise AssertionError("a params cell built a dataset again")

        seen, plan = [], H.ps

        def spy(model, b, T):
            seen.append(model)
            return plan(model, b, T)

        monkeypatch.setattr(H, "make_dataset", no_build)
        monkeypatch.setattr(H, "ps", spy)
        params = DEFAULT.with_(theta=3)
        cell = runner.run("small100", "ps", 6, 3, params=params)
        assert cell.params == params and runner.dataset("small100") is ds
        assert seen[0].params == params and seen[0].s_c is ds.model.s_c

    def test_spark_check_uses_the_cells_dataset(self, runner, monkeypatch, local_as_spark):
        """The check evaluates the cell's dataset with the cell's own ``params``."""
        import repro.diffusion.spark_engine as engine

        params = DEFAULT.with_(theta=3)
        cell = runner.run("small100", "ps", 6, 2, params=params)
        seen = []

        def fake(spark, model, seeds, T, n_samples):
            seen.append(model)
            return local_as_spark(model, seeds, T, n_samples)

        monkeypatch.setattr(engine, "simulate_spark", fake)
        check = runner.spark_check(None, cell)
        assert check.mismatches == [] and check.spark_sigma == cell.sigma
        base = runner.dataset("small100").model
        assert seen[0].params == params and base.params == DEFAULT
        assert seen[0].s_c is base.s_c and seen[0].base_pref is base.base_pref

    def test_spark_check_zero_samples_rejected(self, runner, monkeypatch, local_as_spark):
        """``n_samples=0`` reaches the engine's check instead of meaning the default."""
        import repro.diffusion.spark_engine as engine

        def fake(spark, model, seeds, T, n_samples):
            return local_as_spark(model, seeds, T, n_samples)

        monkeypatch.setattr(engine, "simulate_spark", fake)
        cell = runner.run("small100", "ps", 6, 2)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            runner.spark_check(None, cell, n_samples=0)

    @pytest.mark.parametrize("what", ["log", "sigma", "sigma_by_t"])
    def test_spark_check_compares_log_sigma_and_sigma_by_t(
        self, runner, monkeypatch, local_as_spark, what
    ):
        import repro.diffusion.spark_engine as engine

        cell = runner.run("small100", "ps", 6, 2)

        def fake(spark, model, seeds, T, n_samples):
            res = local_as_spark(model, seeds, T, n_samples)
            if what == "log":
                res.adoptions.loc[0, "t"] += 1
            elif what == "sigma":
                res.sigma += 1e-9
            else:
                res.sigma_by_t[1] += 1e-9
            return res

        monkeypatch.setattr(engine, "simulate_spark", fake)
        assert runner.spark_check(None, cell).mismatches == [what]


def test_local_path_does_not_import_pyspark():
    """Planning and σ on the local engine never load pyspark."""
    code = (
        "import sys, repro.data.datasets, repro.experiments.harness, repro.core.dysim, "
        "repro.baselines.bundlegrd, repro.baselines.hag, repro.baselines.ps, "
        "repro.baselines.opt; assert 'pyspark' not in sys.modules, sorted(sys.modules)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestTables:
    def test_t1_rows(self, runner):
        rows = H.table_t1_opt_budget(runner, budgets=(6,), T=2)
        assert len(rows) == 1
        assert set(rows[0]) == {"b", "opt", "dysim", "bundlegrd", "hag", "ps"}

    def test_t3_skips_hag_on_douban(self, runner):
        rows = H.table_t3_large_budget(
            runner, datasets=("douban_lite",), budgets=(20,), T=2
        )
        assert rows[0]["hag"] is None
        assert rows[0]["dysim"] is not None

    def test_t7_shapes(self, runner):
        rows = H.table_t7_scalability(runner, datasets=("yelp_lite",), b=20, T=2)
        assert rows[0]["users"] == 900
        assert rows[0]["dysim_seconds"] > 0

    def test_t8_metagraph_counts(self, runner):
        rows = H.table_t8_metagraphs(runner, sizes=((1, 1),), b=10, T=2)
        assert rows[0]["n_metagraphs"] == 2

    def test_t8_full_library_row_reads_the_cached_cell(self, runner, monkeypatch):
        """The (3, 3) row is the amazon_lite Dysim cell: no planning or σ again."""
        cell = runner.run("amazon_lite", "dysim", 10, 2)
        full = runner.dataset("amazon_lite").model
        sliced = dataclasses.replace(full, s_c=full.s_c[:3], s_s=full.s_s[:3])
        assert H.dysim(sliced, 10, 2, max_pairs=runner.max_pairs).seeds == cell.seeds

        def no_call(*args, **kwargs):
            raise AssertionError("the full-library row ran the engine again")

        monkeypatch.setattr(H, "dysim", no_call)
        monkeypatch.setattr(H, "simulate", no_call)
        rows = H.table_t8_metagraphs(runner, sizes=((3, 3),), b=10, T=2)
        assert rows == [{"n_metagraphs": 6, "dysim": round(cell.sigma, 1),
                         "seconds": round(cell.seconds, 2)}]

    def test_t9_theta_param_threads_through(self, runner):
        rows = H.table_t9_theta(runner, thetas=(3,), b=10, T=2)
        assert rows[0]["theta"] == 3

    @pytest.mark.parametrize(
        "table, kwargs, columns",
        [
            pytest.param("table_t2_opt_T", dict(Ts=(2,), b=6), {"T", "opt"}, id="t2"),
            pytest.param("table_t4_large_T", dict(datasets=("yelp_lite",), Ts=(5,), b=40),
                         {"dataset", "T"}, id="t4"),
            pytest.param("table_t5_time_budget", dict(budgets=(40,), T=5), {"b"}, id="t5"),
            pytest.param("table_t6_time_T", dict(Ts=(5,), b=40), {"T"}, id="t6"),
        ],
    )
    def test_reduced_sweep(self, runner, table, kwargs, columns):
        """One cell of each table runner that no other test runs."""
        rows = getattr(H, table)(runner, **kwargs)
        assert len(rows) == 1
        assert set(rows[0]) == columns | set(H.METHODS)
        assert all(rows[0][m] > 0 for m in H.METHODS)

    def test_markdown_rendering(self):
        md = H.to_markdown([{"a": 1, "b": None}])
        assert "| a | b |" in md
        assert "| 1 | — |" in md

    def test_markdown_empty(self):
        assert H.to_markdown([]) == "(no rows)"
