"""Tests for the local Monte-Carlo diffusion engine (repro.diffusion.local)."""
import numpy as np
import pytest

import repro.diffusion.local as local_engine
from repro.data.datasets import make_dataset
from repro.diffusion.local import likelihood_pi, simulate
from repro.diffusion.sigma import sigma_from_adopt_t
from repro.dynamics.state import ModelData
from repro.params import DEFAULT


def line_model(p_edge: float, n_items: int = 2, base_pref: float = 1.0) -> ModelData:
    """0 -> 1 -> 2 chain with controllable probabilities."""
    s = np.zeros((1, n_items, n_items))
    return ModelData(
        n_users=3, n_items=n_items,
        src=np.array([0, 1]), dst=np.array([1, 2]),
        base_inf=np.full(2, p_edge), s_c=s, s_s=s.copy(),
        base_pref=np.full((3, n_items), base_pref),
        importance=np.ones(n_items), cost=np.ones((3, n_items)),
        params=DEFAULT, seed=0,
    )


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


class TestDeterministicChains:
    def test_certain_propagation(self):
        m = line_model(p_edge=0.949)  # clipped to cap 0.95... keep below cap
        m = line_model(p_edge=0.94)
        res = simulate(m, [(0, 0, 1)], T=1, n_samples=4)
        # pref=1 (clipped), act=0.94: adoption nearly certain but random;
        # with p close to 1 all 4 samples should reach user 1.
        assert (res.adopt_t[:, 0, 0] == 1).all()

    def test_zero_preference_blocks(self):
        m = line_model(p_edge=0.9, base_pref=0.0)
        # pref floor is 0.02 so adoption is possible but very unlikely;
        # seeds themselves always adopt.
        res = simulate(m, [(0, 0, 1)], T=1, n_samples=8)
        assert (res.adopt_t[:, 0, 0] == 1).all()
        assert res.adopt_t[:, 2, 0].sum() == 0

    def test_seed_always_adopts(self):
        m = line_model(0.5)
        res = simulate(m, [(2, 1, 1)], T=1, n_samples=3)
        assert (res.adopt_t[:, 2, 1] == 1).all()

    def test_isolated_seed_spreads_nothing(self):
        m = line_model(0.9)
        res = simulate(m, [(2, 0, 1)], T=1, n_samples=3)
        assert res.sigma == pytest.approx(1.0)  # only the seed adoption


class TestEngineProperties:
    def test_deterministic(self, small):
        seeds = [(0, 0, 1), (5, 2, 2)]
        a = simulate(small, seeds, T=3, n_samples=8)
        b = simulate(small, seeds, T=3, n_samples=8)
        assert a.sigma == b.sigma
        assert np.array_equal(a.adopt_t, b.adopt_t)

    def test_salt_changes_randomness(self, small):
        seeds = [(0, 0, 1)]
        a = simulate(small, seeds, T=2, n_samples=8, trial_salt=0)
        b = simulate(small, seeds, T=2, n_samples=8, trial_salt=1)
        assert not np.array_equal(a.adopt_t, b.adopt_t)

    def test_more_seeds_more_sigma(self, small):
        few = simulate(small, [(0, 0, 1)], T=2, n_samples=16).sigma
        more = simulate(small, [(0, 0, 1), (1, 0, 1), (2, 1, 1)], T=2, n_samples=16).sigma
        assert more > few

    def test_sigma_by_t_sums_to_sigma(self, small):
        res = simulate(small, [(0, 0, 1), (3, 1, 2)], T=3, n_samples=8)
        assert res.sigma == pytest.approx(res.sigma_by_t.sum())

    def test_sigma_matches_adopt_t(self, small):
        res = simulate(small, [(0, 0, 1), (3, 1, 2)], T=3, n_samples=8)
        assert res.sigma == pytest.approx(
            sigma_from_adopt_t(res.adopt_t, small.importance)
        )

    def test_adoption_absorbing(self, small):
        # Re-seeding an adopted pair adds nothing.
        res = simulate(small, [(0, 0, 1), (0, 0, 2)], T=2, n_samples=8)
        assert (res.adopt_t[:, 0, 0] == 1).all()

    def test_invalid_timing_rejected(self, small):
        with pytest.raises(ValueError):
            simulate(small, [(0, 0, 7)], T=3, n_samples=2)

    @pytest.mark.parametrize(
        "seeds, n_samples",
        [
            ([(-1, 0, 1)], 2),  # user below range
            ([(100, 0, 1)], 2),  # user == n_users
            ([(0, -1, 1)], 2),  # item below range
            ([(0, 10_000, 1)], 2),  # item above range
            ([(0, 0, 1), (5, 1, 1), (0, 0, 1)], 2),  # pair twice in one promotion
            ([(0, 0, 1)], 0),  # no samples
        ],
    )
    def test_bad_input_rejected(self, small, seeds, n_samples):
        assert small.n_users == 100
        with pytest.raises(ValueError):
            simulate(small, seeds, T=2, n_samples=n_samples)

    def test_spark_engine_shares_the_check(self, small):
        from repro.diffusion.spark_engine import simulate_spark

        with pytest.raises(ValueError):  # raised before any Spark work
            simulate_spark(None, small, [(0, -1, 1)], T=2, n_samples=2)

    def test_same_pair_in_two_promotions_allowed(self, small):
        res = simulate(small, [(0, 0, 1), (0, 0, 2)], T=2, n_samples=2)
        assert (res.adopt_t[:, 0, 0] == 1).all()

    def test_empty_seed_group(self, small):
        res = simulate(small, [], T=2, n_samples=2)
        assert res.sigma == 0.0

    def test_frozen_state_never_changes(self, small):
        from repro.dynamics.state import init_state

        res = simulate(small, [(0, 0, 1), (1, 1, 1)], T=2, n_samples=4, frozen=True)
        st0 = init_state(small, 4)
        assert np.array_equal(res.state.wc, st0.wc)
        assert np.array_equal(res.state.ws, st0.ws)

    def test_dynamic_state_changes(self, small):
        from repro.dynamics.state import init_state

        res = simulate(small, [(0, 0, 1), (0, 1, 1)], T=2, n_samples=4)
        st0 = init_state(small, 4)
        assert not np.allclose(res.state.wc, st0.wc)

    def test_importance_weighting(self):
        m = line_model(0.0, n_items=2)
        m.importance = np.array([1.0, 0.25])
        res = simulate(m, [(0, 0, 1), (1, 1, 1)], T=1, n_samples=2)
        assert res.sigma == pytest.approx(1.25)


class TestExtraAdoption:
    def test_ext_requires_relevance(self):
        # With zero relevance tensors no extra adoptions can happen.
        m = line_model(0.94)
        res = simulate(m, [(0, 0, 1)], T=1, n_samples=8)
        assert res.adopt_t[:, :, 1].sum() == 0

    def test_ext_triggers_with_strong_complement(self):
        m = line_model(0.94)
        m.s_c[0, 0, 1] = m.s_c[0, 1, 0] = 1.0
        res = simulate(m, [(0, 0, 1)], T=2, n_samples=32)
        # u=1 is promoted item 0 with p~0.9; P_ext ~ ext_scale*0.9*1.0;
        # some samples must extra-adopt item 1.
        assert res.adopt_t[:, 1, 1].sum() > 0


class TestLikelihoodPi:
    def test_nonnegative(self, small):
        res = simulate(small, [(0, 0, 1)], T=1, n_samples=4)
        assert likelihood_pi(small, res.state) >= 0.0

    def test_zero_without_adoptions(self, small):
        from repro.dynamics.state import init_state

        assert likelihood_pi(small, init_state(small, 2)) == 0.0

    def test_subset_of_users(self, small):
        res = simulate(small, [(0, 0, 1), (1, 1, 1)], T=1, n_samples=4)
        all_users = likelihood_pi(small, res.state)
        some = likelihood_pi(small, res.state, users=np.arange(10))
        assert 0.0 <= some <= all_users


@pytest.fixture(scope="module")
def amazon():
    return make_dataset("amazon_lite").model


_SEED_GROUPS = {
    "small100": [(0, 0, 1), (5, 2, 1), (9, 0, 2), (12, 1, 2), (71, 3, 3)],
    "amazon_lite": [(299, 9, 1), (1740, 0, 1), (299, 0, 2), (919, 0, 2), (733, 23, 3)],
}


def _case(request, preset):
    model = request.getfixturevalue("small" if preset == "small100" else "amazon")
    return model, _SEED_GROUPS[preset]


def _same_run(a, b):
    return (
        np.array_equal(a.adopt_t, b.adopt_t)
        and np.array_equal(a.state.wc, b.state.wc)
        and np.array_equal(a.state.ws, b.state.ws)
    )


class TestSampleBatchingExact:
    """The blocked sample axis changes no bit: each sample is its own run."""

    @pytest.mark.parametrize("preset", ["small100", "amazon_lite"])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_prefix_of_samples(self, request, preset, frozen):
        model, seeds = _case(request, preset)
        five = simulate(model, seeds, T=3, n_samples=5, frozen=frozen)
        three = simulate(model, seeds, T=3, n_samples=3, frozen=frozen)
        assert np.array_equal(five.adopt_t[:3], three.adopt_t)
        assert np.array_equal(five.state.wc[:3], three.state.wc)
        assert np.array_equal(five.state.ws[:3], three.state.ws)
        assert three.adopt_t.any()

    @pytest.mark.parametrize("preset", ["small100", "amazon_lite"])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_block_and_chunk_sizes(self, request, monkeypatch, preset, frozen):
        model, seeds = _case(request, preset)
        M = 3 if preset == "amazon_lite" else 4
        want = simulate(model, seeds, T=3, n_samples=M, frozen=frozen)
        monkeypatch.setattr(local_engine, "BLOCK_ROWS", 1)
        monkeypatch.setattr(local_engine, "CHUNK_ROWS", 1)
        got = simulate(model, seeds, T=3, n_samples=M, frozen=frozen)
        assert _same_run(got, want)
        assert got.sigma == want.sigma
