"""Tests for the stateless counter-based RNG (repro.rng)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import bernoulli, fold, fold_from, u01, u01_from


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

    @pytest.mark.parametrize("key", [-1, np.int64(-3), 2**64])
    def test_out_of_range_key_raises(self, key):
        with pytest.raises(ValueError):
            fold(1, key)
        with pytest.raises(ValueError):
            u01(key, 2)


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
    def test_p_zero_never(self):
        assert not bernoulli(0.0, 0, np.arange(1000)).any()

    def test_p_one_always(self):
        assert bernoulli(1.0, 0, np.arange(1000)).all()

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_rate_matches_p(self, p):
        hits = bernoulli(p, 5, np.arange(50_000))
        assert abs(hits.mean() - p) < 0.01

    def test_vector_p(self):
        p = np.linspace(0, 1, 11)
        out = bernoulli(p, 1, np.arange(11))
        assert out.shape == (11,)
