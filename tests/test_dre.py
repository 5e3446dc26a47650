"""Tests for Dynamic Reachability (repro.core.dre, Eqs. 1, 3, 4)."""
import numpy as np
import pytest

from repro.core.dre import dr_all_items


def _reference_pi_ri(r_c, r_s, w, d):
    """Direct recursive implementation of Eqs. (3)-(4) for testing."""
    n = r_c.shape[0]
    rel = (r_c + r_s) > 0
    tot = np.where(r_c + r_s > 0, r_c + r_s, 1.0)
    lc, ls = r_c / tot, r_s / tot

    def pi(x, depth):
        if depth <= 0:
            return 0.0
        out = 0.0
        for y in range(n):
            if not rel[x, y]:
                continue
            out += lc[x, y] * r_c[x, y] * w[y] - ls[x, y] * r_s[x, y] * w[y]
            out += pi(y, depth - 1)
        return out

    def ri(x, wx, depth):
        if depth <= 0:
            return 0.0
        out = 0.0
        for z in range(n):
            if not rel[z, x]:
                continue
            out += lc[z, x] * r_c[z, x] * wx - ls[z, x] * r_s[z, x] * wx
            out += ri(z, wx, depth - 1)
        return out

    return np.array([pi(x, d) + ri(x, w[x], d) for x in range(n)])


def _toy(seed=0, n=4):
    g = np.random.default_rng(seed)
    r_c = g.random((n, n)) * (g.random((n, n)) > 0.4)
    r_s = g.random((n, n)) * (g.random((n, n)) > 0.6)
    r_c = (r_c + r_c.T) / 2
    r_s = (r_s + r_s.T) / 2
    np.fill_diagonal(r_c, 0)
    np.fill_diagonal(r_s, 0)
    return r_c, r_s, g.uniform(0.2, 1.0, n)


class TestDr:
    def test_depth_zero_is_zero(self):
        r_c, r_s, w = _toy()
        assert np.allclose(dr_all_items(r_c, r_s, w, 0), 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_recursion(self, d, seed):
        r_c, r_s, w = _toy(seed)
        got = dr_all_items(r_c, r_s, w, d)
        want = _reference_pi_ri(r_c, r_s, w, d)
        assert np.allclose(got, want)

    def test_pure_complement_positive(self):
        r_c = np.array([[0.0, 0.8], [0.8, 0.0]])
        r_s = np.zeros((2, 2))
        w = np.array([1.0, 0.5])
        dr = dr_all_items(r_c, r_s, w, 1)
        # PI(0) = 1.0*0.8*0.5, RI(0) = 1.0*0.8*1.0 (likelihoods are 1).
        assert dr[0] == pytest.approx(0.8 * 0.5 + 0.8 * 1.0)

    def test_pure_substitute_negative(self):
        r_c = np.zeros((2, 2))
        r_s = np.array([[0.0, 0.6], [0.6, 0.0]])
        w = np.ones(2)
        dr = dr_all_items(r_c, r_s, w, 1)
        assert (dr < 0).all()

    def test_paper_example_4_style(self):
        """Example 4 arithmetic: mixed relevance with likelihood weighting.

        Average relevance between iPhone(0) and iPad(1): r̄C=0.2, r̄S=0.4
        → the likelihood-weighted gain is 0.2·0.2/0.6 − 0.4·0.4/0.6.
        iPhone-AirPods(2): r̄C=0.4, r̄S=0 → gain 1·0.4.
        """
        r_c = np.zeros((3, 3))
        r_s = np.zeros((3, 3))
        r_c[0, 1] = r_c[1, 0] = 0.2
        r_s[0, 1] = r_s[1, 0] = 0.4
        r_c[0, 2] = r_c[2, 0] = 0.4
        w = np.array([1.0, 1.0, 0.5])
        dr = dr_all_items(r_c, r_s, w, 1)
        pi_expected = (0.2 * 0.2 / 0.6 - 0.4 * 0.4 / 0.6) * 1.0 + 1.0 * 0.4 * 0.5
        ri_expected = (0.2 * 0.2 / 0.6 - 0.4 * 0.4 / 0.6) * 1.0 + 1.0 * 0.4 * 1.0
        assert dr[0] == pytest.approx(pi_expected + ri_expected)

    def test_deeper_reachability_propagates(self):
        # Chain 0-1-2: at depth 2 item 0 feels item 2 through item 1.
        r_c = np.zeros((3, 3))
        r_c[0, 1] = r_c[1, 0] = 0.5
        r_c[1, 2] = r_c[2, 1] = 0.5
        w = np.ones(3)
        d1 = dr_all_items(r_c, np.zeros_like(r_c), w, 1)
        d2 = dr_all_items(r_c, np.zeros_like(r_c), w, 2)
        assert d2[0] > d1[0]
