"""Tests for Params, the sigma helpers, and the job wrappers."""
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.diffusion.sigma import sigma_from_adopt_t, sigma_groups
from repro.params import DEFAULT, Params


class TestParams:
    def test_defaults_sane(self):
        p = Params()
        assert 0 < p.pref_floor < 1
        assert 0 < p.act_floor < p.act_cap <= 1
        assert p.mc_plan >= 1

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
        sigma, by_t = sigma_from_adopt_t(adopt_t, w, 2)
        assert sigma == pytest.approx(0.5 * 1.0 + 1.0 * 0.5)
        # t=1: item 0 mean 0.5, item 1 mean 0.5; t=2: item 1 mean 0.5.
        assert by_t == pytest.approx([0.0, 0.5 + 0.25, 0.25])

    def test_never_adopted_is_zero(self):
        sigma, by_t = sigma_from_adopt_t(np.zeros((1, 4, 3), np.int16), np.ones(3), 2)
        assert sigma == 0.0
        assert not by_t.any()

    @pytest.mark.parametrize("T", [1, 3, 10])
    @pytest.mark.parametrize("empty", [False, True])
    def test_equals_per_promotion_passes(self, T, empty):
        """The one-pass counts give the bits of one ``adopt_t == t`` pass per promotion."""
        rng = np.random.default_rng(T)
        M, U, I = 16, 40, 7
        adopt_t = rng.integers(0, T + 1, (M, U, I)).astype(np.int16)
        adopt_t[rng.random((M, U, I)) < 0.6] = 0
        if empty:
            adopt_t[:] = 0
        importance = rng.uniform(0.1, 3.0, I)
        want_by_t = np.zeros(T + 1)
        for t in range(1, T + 1):
            cnt = (adopt_t == t).sum(axis=1)
            want_by_t[t] = float((cnt.mean(axis=0) * importance).sum())
        want = float(((adopt_t > 0).sum(axis=1).mean(axis=0) * importance).sum())
        sigma, by_t = sigma_from_adopt_t(adopt_t, importance, T)
        assert sigma == want
        assert (by_t == want_by_t).all()
        assert (sigma == 0.0) == empty


def _per_promotion(adopt_t, importance, T):
    """σ and ``σ_by_t`` of one group ``[M, U, I]``, one ``adopt_t == t`` pass each."""
    by_t = np.zeros(T + 1)
    for t in range(1, T + 1):
        by_t[t] = float(((adopt_t == t).sum(axis=1).mean(axis=0) * importance).sum())
    return float(((adopt_t > 0).sum(axis=1).mean(axis=0) * importance).sum()), by_t


class TestSigmaGroups:
    """One count over a block gives every group its own ``sigma_from_adopt_t`` bits."""

    @pytest.mark.parametrize("M", [1, 3, 16])
    @pytest.mark.parametrize("I, T", [(7, 3), (48, 10), (255, 2)])
    @pytest.mark.parametrize("empty", [False, True])
    def test_equals_per_group(self, M, I, T, empty):
        """Ragged groups: each has its own (submodel) user count."""
        rng = np.random.default_rng(M * 1000 + I + T)
        users = [40, 1, 7, 40, 0, 13, 200]
        groups = []
        for U in users:
            a = rng.integers(0, T + 1, (M, U, I)).astype(np.int16)
            a[rng.random((M, U, I)) < 0.7] = 0
            groups.append(a * (not empty))
        groups[3][:] = 0  # an empty group among non-empty ones
        importance = rng.uniform(0.1, 3.0, I)
        rows = np.concatenate([g.reshape(-1, I) for g in groups])
        group = np.repeat(np.arange(len(groups)), [M * U for U in users])
        sigma, by_t = sigma_groups(rows, group, len(groups), M, importance, T)
        assert sigma.shape == (len(groups),) and by_t.shape == (len(groups), T + 1)
        for k, a in enumerate(groups):
            one, one_by_t = sigma_from_adopt_t(a, importance, T)
            ref, ref_by_t = _per_promotion(a, importance, T)
            assert sigma[k] == one == ref
            assert (by_t[k] == one_by_t).all() and (one_by_t == ref_by_t).all()
        assert (sigma == 0.0).all() == empty


class TestJobWrappers:
    @pytest.mark.parametrize("t", [f"t{i}" for i in range(1, 10)])
    def test_table_job_runs_with_stubbed_harness(self, t, monkeypatch, capsys, tmp_path):
        """``run_all_tables.py --table tN`` runs only that table and writes it.

        Its heading is the committed ``table_results.md``'s, so a full
        run differs from the committed file in results only.
        """
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
        headings = [ln for ln in out.read_text().splitlines() if ln.startswith("## ")]
        assert len(headings) == 1
        assert headings[0] in Path("table_results.md").read_text().splitlines()

    @staticmethod
    def _certify(monkeypatch, tmp_path, fake_spark_run):
        """Run ``run_all_tables.py --quick --table T1`` with ``fake_spark_run``.

        The table is stubbed; the certification cell is planned and
        checked by the real ``Runner.spark_check``. Returns the exit code
        and the written file.
        """
        import repro.diffusion.spark_engine as engine
        import repro.experiments.harness as H
        import repro.spark_session

        class FakeSpark:
            def stop(self):
                pass

        monkeypatch.setattr(repro.spark_session, "job_session", lambda name: FakeSpark())
        monkeypatch.setattr(engine, "simulate_spark", lambda spark, *a: fake_spark_run(*a))
        monkeypatch.setattr(H, "table_t1_opt_budget", lambda r, **kw: [{"b": 1}])
        out = tmp_path / "tables.md"
        monkeypatch.setattr(
            sys, "argv", ["run_all_tables.py", "--quick", "--table", "T1", "--out", str(out)]
        )
        with pytest.raises(SystemExit) as exc:
            runpy.run_path("jobs/run_all_tables.py", run_name="__main__")
        return exc.value.code, out.read_text()

    @pytest.mark.parametrize("offset, code", [(0.0, 0), (1e-9, 1)])
    def test_spark_certification_exits_1_on_divergence(
        self, offset, code, monkeypatch, tmp_path, local_as_spark
    ):
        """The certified cell's Spark σ must equal the local σ with ``==``."""

        def run(*args):
            res = local_as_spark(*args)
            res.sigma += offset
            return res

        got, text = self._certify(monkeypatch, tmp_path, run)
        assert got == code
        verdict = "DIVERGED" if code else "equal"
        assert f"must match exactly): {verdict}." in text

    def test_spark_certification_exits_1_on_log_mismatch(
        self, monkeypatch, capsys, tmp_path, local_as_spark
    ):
        """One Spark log row differs while σ and ``σ_by_t`` are equal: exit 1."""

        def run(*args):
            res = local_as_spark(*args)
            res.adoptions.loc[0, "t"] += 1
            return res

        got, text = self._certify(monkeypatch, tmp_path, run)
        assert got == 1
        assert "must match exactly): DIVERGED." in text
        assert "engines diverged: log differ" in capsys.readouterr().err
