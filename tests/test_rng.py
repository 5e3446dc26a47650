"""Tests for the stateless counter-based RNG (repro.rng)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import below, fold, fold_from, u01, u01_from


class TestFold:
    def test_deterministic(self):
        assert fold(1, 2, 3) == fold(1, 2, 3)

    def test_distinct_keys_distinct_values(self):
        vals = {int(fold(a, b)) for a in range(20) for b in range(20)}
        assert len(vals) == 400

    def test_order_sensitive(self):
        assert fold(1, 2) != fold(2, 1)

    def test_arity_sensitive(self):
        assert fold(1) != fold(1, 0)

    def test_broadcasts_over_arrays(self):
        a = np.arange(5)
        out = fold(7, a)
        assert out.shape == (5,)
        assert len(set(out.tolist())) == 5

    def test_matrix_broadcast(self):
        out = fold(3, np.arange(4)[:, None], np.arange(6)[None, :])
        assert out.shape == (4, 6)

    def test_dtype_uint64(self):
        assert fold(1).dtype == np.uint64


class TestKeyForms:
    """Python ints, numpy scalars and arrays are the same keys."""

    def test_pinned_values(self):
        # SplitMix64 over the keys; any change to the fold moves every σ.
        assert int(fold(1, 2, 3)) == 1443444168058374695
        assert float(u01(7, 21, 3, 5)) == 0.44519814537441016
        assert fold(9, np.arange(3), 4).tolist() == [
            13316909960013408938, 695260019348681024, 18066932095006859899,
        ]

    def test_scalar_forms_same_bits(self):
        want = fold(7, 21, 3, 5)
        assert fold(np.int64(7), np.uint64(21), np.int32(3), np.array(5)) == want
        assert u01(np.int64(7), 21, np.int16(3), 5) == u01(7, 21, 3, 5)

    def test_broadcast_array_keys_same_bits(self):
        a = np.arange(6, dtype=np.int64)
        grid = u01(7, 21, 3, a[:, None], a[None, :])
        for i in range(6):
            for j in range(6):
                assert grid[i, j] == u01(7, 21, 3, i, j)
        full = np.full(6, 21, dtype=np.int64)
        assert np.array_equal(u01(7, full, 3, a), u01(7, 21, 3, a))
        assert np.array_equal(
            fold(np.full((2, 1), 7), 21, a), np.broadcast_to(fold(7, 21, a), (2, 6))
        )

    def test_fold_from_continues_a_fold(self):
        a = np.arange(5, dtype=np.int64)
        assert fold_from(fold(1, 2), 3, 4) == fold(1, 2, 3, 4)
        pre = fold(9, 21, 0, a, 2, 1)
        assert np.array_equal(fold_from(pre, a, 4), fold(9, 21, 0, a, 2, 1, a, 4))
        assert np.array_equal(
            u01_from(pre[:, None], a[None, :]), u01(9, 21, 0, a[:, None], 2, 1, a[None, :])
        )

    def test_event_fold_continued_by_each_item(self):
        """The engine's trial keys: a block prefix, then (t, ζ), then (u', u, x), then y."""
        seed, tag, salt, t, zeta = 2**63 + 5, 21, 3, 4, 2
        samp = np.array([0, 7, 3], dtype=np.int64)
        prefix = fold_from(fold(seed, tag, salt, samp), t, zeta)
        # Events gather the prefixes of their samples; events 1 and 4 are equal.
        ev_s = np.array([0, 2, 2, 1, 2, 0])
        src = np.array([5, 1, 9, 5, 1, 0], dtype=np.int64)
        dst = np.array([6, 4, 4, 2, 4, 3], dtype=np.int64)
        x = np.array([0, 3, 3, 1, 3, 2], dtype=np.int64)
        h = fold_from(prefix[ev_s], src, dst, x)
        e = np.array([0, 0, 1, 1, 4, 3, 5, 5, 5])  # several trials per event
        y = np.array([1, 4, 0, 2, 0, 0, 0, 1, 3], dtype=np.int64)
        for ev, ys in ((np.arange(len(x)), x), (e, y)):
            got = u01_from(h[ev], ys)
            want = u01(seed, tag, salt, samp[ev_s[ev]], t, zeta, src[ev], dst[ev], x[ev], ys)
            assert np.array_equal(got, want)
            for k in range(len(ev)):
                assert got[k] == u01(
                    seed, tag, salt, int(samp[ev_s[ev[k]]]), t, zeta,
                    int(src[ev[k]]), int(dst[ev[k]]), int(x[ev[k]]), int(ys[k]),
                )
        assert got[4] == u01_from(h[1], 0) and h[1] == h[4]

    @pytest.mark.parametrize("key", [-1, np.int64(-3), 2**64])
    def test_out_of_range_key_raises(self, key):
        with pytest.raises(ValueError):
            fold(1, key)
        with pytest.raises(ValueError):
            u01(key, 2)
        with pytest.raises(ValueError):  # an array accumulator, as the engine folds
            fold_from(fold(7, np.arange(3)), key)


class TestU01:
    def test_range(self):
        v = u01(0, np.arange(10_000))
        assert (v >= 0).all() and (v < 1).all()

    def test_mean_near_half(self):
        v = u01(42, np.arange(100_000))
        assert abs(v.mean() - 0.5) < 0.01

    def test_uniformity_deciles(self):
        v = u01(9, np.arange(100_000))
        counts, _ = np.histogram(v, bins=10, range=(0, 1))
        assert counts.min() > 9_000 and counts.max() < 11_000

    def test_deterministic(self):
        assert u01(1, 2, 3) == u01(1, 2, 3)

    def test_key_independence(self):
        # Adjacent keys must be decorrelated.
        a = u01(0, np.arange(50_000))
        b = u01(0, np.arange(50_000) + 1)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    @settings(max_examples=50, deadline=None)
    def test_always_in_unit_interval(self, a, b):
        v = float(u01(a, b))
        assert 0.0 <= v < 1.0


class TestBernoulli:
    """A trial hits when its draw is below its probability, as the engine draws."""

    def test_p_zero_never(self):
        assert not (u01(0, np.arange(1000)) < 0.0).any()

    def test_p_one_always(self):
        assert (u01(0, np.arange(1000)) < 1.0).all()

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_rate_matches_p(self, p):
        hits = u01(5, np.arange(50_000)) < p
        assert abs(hits.mean() - p) < 0.01

    def test_vector_p(self):
        p = np.linspace(0, 1, 11)
        out = u01(1, np.arange(11)) < p
        assert out.shape == (11,)
        assert not out[0] and out[-1]


class TestBelow:
    """``below`` compares on the integers with the float draw's result."""

    ACC = fold(7, 21, 0, np.arange(64))

    def _both(self, p):
        keys = np.arange(64) % 5
        return below(self.ACC, keys, p), u01_from(self.ACC, keys) < p

    @pytest.mark.parametrize(
        "p", [0.0, 1.0, 5e-324, np.nextafter(0.0, 1.0) * 3, float("nan"), -0.5, 2.0, 0.5]
    )
    def test_scalar_p(self, p):
        got, want = self._both(p)
        assert got.dtype == bool and np.array_equal(got, want)

    def test_p_equal_to_a_draw(self):
        """At ``p = k·2⁻⁵³`` exactly, the draw ``k`` misses and every lower one hits."""
        keys = np.arange(64) % 5
        u = u01_from(self.ACC, keys)
        k = (fold_from(self.ACC, keys) >> np.uint64(11)).astype(np.float64)
        assert np.array_equal(u * 2.0**53, k)  # the draw is k · 2^-53, exactly
        for p in (u, np.nextafter(u, 1.0), np.nextafter(u, 0.0)):
            assert np.array_equal(below(self.ACC, keys, p), u < p)
        assert not below(self.ACC, keys, u).any()
        assert below(self.ACC, keys, np.nextafter(u, 1.0)).all()

    def test_vector_p(self):
        g = np.random.default_rng(0)
        p = g.random(64)
        p[::7] = 0.0
        p[1::9] = np.nan
        got, want = self._both(p)
        assert np.array_equal(got, want) and got.any() and not got.all()

    def test_scalar_keys(self):
        acc = fold(3, 4)
        for p in (0.0, 0.3, 0.9, 1.0):
            assert bool(below(acc, 9, p)) == bool(u01_from(acc, 9) < p)
