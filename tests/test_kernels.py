"""Tests for the IMDPP dynamics kernels (repro.dynamics.kernels)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dynamics import kernels
from repro.kg.relevance import personal_relevance


def _toy_tensors(n_meta=2, n_items=4, seed=0):
    g = np.random.default_rng(seed)
    s = g.random((n_meta, n_items, n_items))
    s = (s + s.transpose(0, 2, 1)) / 2
    for m in range(n_meta):
        np.fill_diagonal(s[m], 0.0)
    return s


class TestNormalizeRows:
    def test_simplex(self):
        w = kernels.normalize_rows(np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert np.allclose(w.sum(axis=1), 1.0)
        assert np.allclose(w[0], [0.25, 0.75])

    def test_clips_negatives(self):
        w = kernels.normalize_rows(np.array([[-1.0, 1.0]]))
        assert np.allclose(w, [[0.0, 1.0]])

    def test_zero_row_becomes_uniform(self):
        w = kernels.normalize_rows(np.zeros((1, 4)))
        assert np.allclose(w, 0.25)

    @given(arrays(np.float64, (3, 5), elements=st.floats(-2, 2)))
    @settings(max_examples=40, deadline=None)
    def test_always_simplex(self, w):
        out = kernels.normalize_rows(w)
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert (out >= 0).all()


class TestInitWeights:
    def test_shape_and_simplex(self):
        w = kernels.init_weights(np.arange(10), 3, seed=1, tag=kernels.TAG_WEIGHT_INIT_C)
        assert w.shape == (10, 3)
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_deterministic(self):
        a = kernels.init_weights(np.arange(5), 3, 7, 11)
        b = kernels.init_weights(np.arange(5), 3, 7, 11)
        assert np.array_equal(a, b)

    def test_seed_changes_weights(self):
        a = kernels.init_weights(np.arange(5), 3, 7, 11)
        b = kernels.init_weights(np.arange(5), 3, 8, 11)
        assert not np.allclose(a, b)

    def test_near_uniform(self):
        w = kernels.init_weights(np.arange(100), 4, 0, 11)
        assert abs(w.mean() - 0.25) < 0.02

    def test_keyed_by_user_id(self):
        users = np.array([42, 7, 99])
        w = kernels.init_weights(users, 3, 7, 11)
        full = kernels.init_weights(np.arange(100), 3, 7, 11)
        assert np.array_equal(w, full[users])


def _pref_row(base, adopted, wc, ws, s_c, s_s, beta_c, beta_s, floor):
    """``P_pref`` of one user: a one-row ``preference_batch`` call."""
    return kernels.preference_batch(
        base[None], adopted[None], wc[None], ws[None], s_c, s_s, beta_c, beta_s, floor
    )[0]


class TestPreference:
    def test_no_adoptions_is_clipped_base(self):
        s_c, s_s = _toy_tensors(), _toy_tensors(seed=1)
        base = np.array([0.01, 0.3, 0.6, 0.9])
        pref = _pref_row(
            base, np.zeros(4, bool), np.full(2, 0.5), np.full(2, 0.5),
            s_c, s_s, 0.4, 0.4, 0.05,
        )
        assert np.allclose(pref, np.clip(base, 0.05, 1.0))

    def test_complement_raises(self):
        s_c = np.zeros((1, 3, 3))
        s_c[0, 0, 1] = s_c[0, 1, 0] = 0.8
        s_s = np.zeros((1, 3, 3))
        ad = np.array([True, False, False])
        pref = _pref_row(
            np.full(3, 0.3), ad, np.ones(1), np.ones(1), s_c, s_s, 0.5, 0.5, 0.02
        )
        assert pref[1] == pytest.approx(0.3 + 0.5 * 0.8)
        assert pref[2] == pytest.approx(0.3)

    def test_substitute_lowers(self):
        s_c = np.zeros((1, 3, 3))
        s_s = np.zeros((1, 3, 3))
        s_s[0, 0, 1] = s_s[0, 1, 0] = 0.8
        ad = np.array([True, False, False])
        pref = _pref_row(
            np.full(3, 0.3), ad, np.ones(1), np.ones(1), s_c, s_s, 0.5, 0.5, 0.02
        )
        assert pref[1] == pytest.approx(max(0.3 - 0.4, 0.02))

    def test_floor_applies(self):
        s_c = np.zeros((1, 2, 2))
        s_s = np.zeros((1, 2, 2))
        s_s[0, 0, 1] = s_s[0, 1, 0] = 1.0
        pref = _pref_row(
            np.full(2, 0.1), np.array([True, False]), np.ones(1), np.ones(1),
            s_c, s_s, 0.5, 0.9, 0.02,
        )
        assert pref[1] == pytest.approx(0.02)

    def test_batch_matches_scalar(self):
        """A batch gives every row the bits of that row's one-row call."""
        s_c, s_s = _toy_tensors(3, 6), _toy_tensors(3, 6, seed=2)
        g = np.random.default_rng(3)
        base = g.random((5, 6)) * 0.5
        ad = g.random((5, 6)) > 0.5
        wc = kernels.normalize_rows(g.random((5, 3)))
        ws = kernels.normalize_rows(g.random((5, 3)))
        batch = kernels.preference_batch(base, ad, wc, ws, s_c, s_s, 0.4, 0.4, 0.02)
        for i in range(5):
            one = _pref_row(base[i], ad[i], wc[i], ws[i], s_c, s_s, 0.4, 0.4, 0.02)
            assert np.array_equal(batch[i], one)


def _einsum_preference(base, adopted, wc, ws, s_c, s_s, beta_c, beta_s, floor):
    """The dense einsum form of ``preference_batch``: the exactness oracle."""
    ad = np.asarray(adopted, dtype=np.float64)
    comp = np.einsum("um,umy->uy", wc, np.einsum("ua,may->umy", ad, s_c))
    subs = np.einsum("um,umy->uy", ws, np.einsum("ua,may->umy", ad, s_s))
    return np.clip(base + beta_c * comp - beta_s * subs, floor, 1.0)


class TestPreferenceBatchExact:
    """``preference_batch`` gives the einsum form's bits on real tensors."""

    @pytest.fixture(scope="class")
    def amazon(self):
        from repro.data.datasets import make_dataset

        return make_dataset("amazon_lite").model

    @pytest.mark.parametrize(
        "rows, max_items",
        [(1, 0), (1, 1), (1, 8), (1, 48), (3, 9), (64, 16), (511, 48),
         (512, 8), (1024, 30), (4096, 5), (4096, 48)],
    )
    def test_equals_einsum(self, amazon, rows, max_items):
        m, p = amazon, amazon.params
        g = np.random.default_rng(rows * 100 + max_items)
        n_items = m.n_items
        ad = np.zeros((rows, n_items), dtype=bool)
        counts = g.integers(0, max_items + 1, rows)
        counts[0] = max_items
        for r, k in enumerate(counts):
            ad[r, g.choice(n_items, k, replace=False)] = True
        users = g.integers(0, m.n_users, rows)
        wc = kernels.normalize_rows(g.random((rows, m.n_comp)))
        ws = kernels.normalize_rows(g.random((rows, m.n_subs)))
        args = (m.base_pref[users], ad, wc, ws, m.s_c, m.s_s,
                p.beta_c, p.beta_s, p.pref_floor)
        assert np.array_equal(kernels.preference_batch(*args), _einsum_preference(*args))


class TestInfluenceStrength:
    def test_empty_sets_give_base(self):
        act = kernels.influence_strength(np.array([0.2]), [0], [0], 0.5, 0.01, 0.95)
        assert act[0] == pytest.approx(0.2)

    def test_jaccard_boost(self):
        act = kernels.influence_strength(np.array([0.2]), [2], [4], 0.5, 0.01, 0.95)
        assert act[0] == pytest.approx(0.2 + 0.5 * 0.5)

    def test_cap(self):
        act = kernels.influence_strength(np.array([0.9]), [9], [9], 1.0, 0.01, 0.95)
        assert act[0] == pytest.approx(0.95)

    def test_floor(self):
        act = kernels.influence_strength(np.array([0.0]), [0], [5], 0.5, 0.01, 0.95)
        assert act[0] == pytest.approx(0.01)

    def test_vectorized(self):
        act = kernels.influence_strength(
            np.full(3, 0.1), [0, 1, 2], [0, 2, 2], 0.4, 0.01, 0.95
        )
        assert act.shape == (3,)
        assert act[2] > act[1] > act[0]


class TestRelevanceRow:
    """Row ``x`` of a user's relevance matrix, as the engines read it."""

    def test_weighted_combination(self):
        s = _toy_tensors(2, 4)
        w = np.array([0.3, 0.7])
        row = personal_relevance(w, s)[1]
        assert np.allclose(row, 0.3 * s[0, 1] + 0.7 * s[1, 1])

    def test_diagonal_zero(self):
        s = _toy_tensors(2, 4)
        assert personal_relevance(np.ones(2), s)[2][2] == 0.0


def _update_one(wc, ws, adopted, new_items, s_c, s_s, eta):
    """``update_weights`` on a batch of one row."""
    new_items = np.asarray(new_items)
    wc, ws = kernels.update_weights(
        wc[None], ws[None], adopted[None], np.zeros(len(new_items), np.int64),
        new_items, s_c, s_s, eta,
    )
    return wc[0], ws[0]


class TestWeightUpdates:
    def test_gain_hand_example(self):
        s = np.zeros((2, 3, 3))
        s[0, 0, 2] = s[0, 2, 0] = 0.5  # meta 0 relates items 0 and 2
        ad_after = np.array([True, False, True])  # owns 0, newly adopted 2
        w = np.full(2, 0.5)
        wc, _ = _update_one(w, w, ad_after, [2], s, s, 1.0)
        # gains [0.5, 0]: normalize([0.5 + 0.5, 0.5 + 0]) = [2/3, 1/3]
        assert wc == pytest.approx([2 / 3, 1 / 3])

    def test_update_reinforces_matching_meta(self):
        s_c = np.zeros((2, 3, 3))
        s_c[0, 0, 1] = s_c[0, 1, 0] = 1.0
        s_s = np.zeros((2, 3, 3))
        ad = np.array([True, True, False])
        wc, ws = _update_one(np.full(2, 0.5), np.full(2, 0.5), ad, [1], s_c, s_s, 0.5)
        assert wc[0] > wc[1]  # meta 0 explained the co-adoption
        assert np.allclose(wc.sum(), 1.0)
        assert np.allclose(ws, 0.5)  # no substitutable instances -> unchanged

    def test_no_relevance_no_change(self):
        s = np.zeros((2, 3, 3))
        wc, ws = _update_one(
            np.array([0.6, 0.4]), np.array([0.3, 0.7]),
            np.array([True, False, True]), [2], s, s, 0.5,
        )
        assert np.allclose(wc, [0.6, 0.4])
        assert np.allclose(ws, [0.3, 0.7])

    def test_two_new_items_symmetric(self):
        """Two new items reinforce by the relevance of the pair, both ways."""
        s = _toy_tensors(2, 4)
        ad = np.array([False, True, True, False])
        w = np.full(2, 0.5)
        wc, _ = _update_one(w, w, ad, [1, 2], s, s, 1.0)
        gain = s[:, 1, 2] + s[:, 2, 1]
        assert np.allclose(wc, (w + gain) / (w + gain).sum())


def _per_row_update(wc, ws, adopted, new_row, new_item, s_c, s_s, eta):
    """The per-row form of ``update_weights``: the exactness oracle."""
    out_c, out_s = wc.copy(), ws.copy()
    for r in range(len(wc)):
        new = new_item[new_row == r]
        ad = adopted[r].astype(np.float64)
        for out, w, s in ((out_c, wc, s_c), (out_s, ws, s_s)):
            out[r] = kernels.normalize_rows(w[r] + eta * np.einsum("a,may->m", ad, s[:, :, new]))
    return out_c, out_s


class TestUpdateWeightsExact:
    """The batched weight update gives each row the per-row einsum's bits."""

    @pytest.fixture(scope="class")
    def amazon(self):
        from repro.data.datasets import make_dataset

        return make_dataset("amazon_lite").model

    @pytest.mark.parametrize("rows, max_new", [(1, 1), (1, 12), (7, 3), (64, 12), (600, 12)])
    def test_equals_per_row_einsum(self, amazon, rows, max_new):
        m = amazon
        g = np.random.default_rng(rows * 100 + max_new)
        I = m.n_items
        k = g.integers(1, max_new + 1, rows)  # mixed counts of new items in one batch
        ad = g.random((rows, I)) < g.random(rows)[:, None] * 0.3
        new_row, new_item = [], []
        for r in range(rows):
            new = np.sort(g.choice(I, k[r], replace=False))
            if r % 5 == 1:
                ad[r] = False  # owns only its one new item: zero gain
                new = new[:1]
            ad[r, new] = True
            new_row += [r] * len(new)
            new_item += new.tolist()
        new_row, new_item = np.array(new_row), np.array(new_item)
        wc = kernels.normalize_rows(g.random((rows, m.n_comp)))
        ws = kernels.normalize_rows(g.random((rows, m.n_subs)))
        args = (wc, ws, ad, new_row, new_item, m.s_c, m.s_s, m.params.eta)
        got_c, got_s = kernels.update_weights(*args)
        want_c, want_s = _per_row_update(*args)
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_s, want_s)
        if rows > 1:  # row 1 owns only its new item: its gain is zero
            new = new_item[new_row == 1]
            assert not np.einsum("a,may->m", ad[1].astype(float), m.s_c[:, :, new]).any()
