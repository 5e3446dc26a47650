"""Tests for Params, the sigma helpers, and the job wrappers."""
import runpy
import sys

import numpy as np
import pandas as pd
import pytest

from repro.diffusion.sigma import sigma_from_adopt_t, sigma_from_adoption_rows
from repro.params import DEFAULT, Params


class TestParams:
    def test_defaults_sane(self):
        p = Params()
        assert 0 < p.pref_floor < 1
        assert 0 < p.act_floor < p.act_cap <= 1
        assert p.mc_plan >= 1 and p.mc_eval >= 1

    def test_with_replaces(self):
        p = DEFAULT.with_(gamma=0.9)
        assert p.gamma == 0.9
        assert p.eta == DEFAULT.eta
        assert DEFAULT.gamma != 0.9  # frozen original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT.gamma = 0.5  # type: ignore[misc]

    def test_hashable_for_cache_keys(self):
        assert hash(DEFAULT) == hash(Params())


class TestSigmaHelpers:
    def test_adopt_t_counting(self):
        adopt_t = np.zeros((2, 3, 2), dtype=np.int16)
        adopt_t[0, 0, 0] = 1  # sample 0 only
        adopt_t[0, 1, 1] = 2
        adopt_t[1, 1, 1] = 1
        w = np.array([1.0, 0.5])
        # item 0: mean 0.5 adopters; item 1: mean 1.0 adopters.
        assert sigma_from_adopt_t(adopt_t, w) == pytest.approx(0.5 * 1.0 + 1.0 * 0.5)

    def test_adoption_rows(self):
        rows = pd.DataFrame({"item": [0, 1, 1], "sample": [0, 0, 1], "user": [1, 2, 2]})
        w = np.array([1.0, 0.5])
        assert sigma_from_adoption_rows(rows, w, n_samples=2) == pytest.approx(
            (1.0 + 0.5 + 0.5) / 2
        )

    def test_empty_rows(self):
        assert sigma_from_adoption_rows(pd.DataFrame(columns=["item"]), np.ones(2), 4) == 0.0

    def test_never_adopted_is_zero(self):
        assert sigma_from_adopt_t(np.zeros((1, 4, 3), np.int16), np.ones(3)) == 0.0


class TestJobWrappers:
    @pytest.mark.parametrize("t", ["t1", "t3", "t7", "t9"])
    def test_table_job_runs_with_stubbed_harness(self, t, monkeypatch, capsys, tmp_path):
        """``run_all_tables.py --table tN`` runs only that table and writes it."""
        import repro.experiments.harness as H

        called = []

        def stub(name):
            def table(r, **kw):
                called.append(name)
                return [{"b": 1, "dysim": 2.0}]

            return table

        for name in dir(H):
            if name.startswith("table_"):
                monkeypatch.setattr(H, name, stub(name))
        monkeypatch.setattr(H, "Runner", lambda **kw: object())
        out = tmp_path / "tables.md"
        monkeypatch.setattr(
            sys, "argv",
            ["run_all_tables.py", "--table", t, "--skip-spark-check", "--out", str(out)],
        )
        with pytest.raises(SystemExit) as exc:
            runpy.run_path("jobs/run_all_tables.py", run_name="__main__")
        assert exc.value.code == 0
        assert [n.split("_")[1] for n in called] == [t]
        assert "| b | dysim |" in capsys.readouterr().out
        assert "| b | dysim |" in out.read_text()
