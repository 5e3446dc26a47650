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
        sigma, by_t = sigma_from_adopt_t(res.adopt_t, small.importance, 3)
        assert res.sigma == sigma
        assert np.array_equal(res.sigma_by_t, by_t)

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

    @pytest.mark.parametrize("T", [0, -1])
    def test_horizon_below_one_rejected(self, small, T):
        with pytest.raises(ValueError, match="T must be >= 1"):
            simulate(small, [], T=T, n_samples=2)

    @pytest.mark.parametrize(
        "seed, what",
        [((3, 0, 1.5), "timing"), ((3.7, 0, 1), "user"), ((3, 0.5, 1), "item"),
         ((3, 0, "1"), "timing"), ((3, None, 1), "item"), ((3, 0, float("nan")), "timing")],
    )
    def test_non_integral_rejected(self, small, seed, what):
        with pytest.raises(ValueError, match=f"seed {what} .* is not an integer"):
            simulate(small, [seed], T=3, n_samples=2)

    def test_integral_values_of_any_type_accepted(self, small):
        want = simulate(small, [(3, 0, 2), (5, 1, 1)], T=3, n_samples=2)
        got = simulate(small, [(np.int64(3), np.int32(0), 2.0), (5.0, 1, np.int8(1))], T=3,
                       n_samples=2)
        assert _same_run(got, want)

    def test_spark_engine_shares_the_check(self, small):
        from repro.diffusion.spark_engine import simulate_spark

        with pytest.raises(ValueError):  # raised before any Spark work
            simulate_spark(None, small, [(0, -1, 1)], T=2, n_samples=2)
        with pytest.raises(ValueError, match="not an integer"):
            simulate_spark(None, small, [(3, 0, 1.5)], T=2, n_samples=2)
        with pytest.raises(ValueError, match="T must be >= 1"):
            simulate_spark(None, small, [], T=0, n_samples=2)

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

    @pytest.mark.parametrize("preset", ["small100", "amazon_lite"])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("lo, hi", [(0, 2), (2, 5), (4, 5)])
    def test_sample_offset_is_a_slice(self, request, preset, frozen, lo, hi):
        """Samples ``[lo, hi)`` run with their offset equal that slice of a full run."""
        model, seeds = _case(request, preset)
        full = simulate(model, seeds, T=3, n_samples=5, frozen=frozen, trial_salt=3)
        part = simulate(
            model, seeds, T=3, n_samples=hi - lo, frozen=frozen, trial_salt=3,
            first_sample=lo,
        )
        assert np.array_equal(part.adopt_t, full.adopt_t[lo:hi])
        assert np.array_equal(part.state.wc, full.state.wc[lo:hi])
        assert np.array_equal(part.state.ws, full.state.ws[lo:hi])
        assert part.adopt_t.any()

    def test_negative_offset_rejected(self, small):
        with pytest.raises(ValueError, match="first_sample"):
            simulate(small, [], T=1, n_samples=2, first_sample=-1)


# Seed groups of mixed sizes and timings, an empty one included.
_GROUPS = {
    "small100": [
        [(0, 0, 1), (5, 2, 1), (9, 0, 2)],
        [],
        [(71, 3, 3)],
        [(12, 1, 2), (0, 0, 3), (5, 2, 3), (9, 1, 1), (71, 0, 2)],
        [(9, 0, 1)],
    ],
    "amazon_lite": [
        [(299, 9, 1), (1740, 0, 1)],
        [],
        [(919, 0, 2), (733, 23, 3), (299, 0, 2)],
        [(1740, 0, 3)],
    ],
}
_M = 3  # samples per group


@pytest.fixture(scope="module")
def per_group_runs(small, amazon):
    """``simulate`` of each group, per (preset, frozen, salt), at default sizes."""
    models = {"small100": small, "amazon_lite": amazon}
    cache = {}

    def get(preset, frozen, salt):
        key = (preset, frozen, salt)
        if key not in cache:
            cache[key] = [
                simulate(models[preset], g, T=3, n_samples=_M, frozen=frozen, trial_salt=salt)
                for g in _GROUPS[preset]
            ]
        return cache[key]

    return get


class TestSimulateGroupsExact:
    """``simulate_groups`` gives each group the bits of its own ``simulate``."""

    @pytest.mark.parametrize("preset", ["small100", "amazon_lite"])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("salt", [0, 11])
    @pytest.mark.parametrize("sizes", ["default", "one", "split", "two-groups"])
    def test_equals_per_group_simulate(
        self, request, monkeypatch, per_group_runs, preset, frozen, salt, sizes
    ):
        model = request.getfixturevalue("small" if preset == "small100" else "amazon")
        U = model.n_users
        if sizes == "one":
            monkeypatch.setattr(local_engine, "BLOCK_ROWS", 1)
            monkeypatch.setattr(local_engine, "CHUNK_ROWS", 1)
        elif sizes == "split":  # one group per chunk, its samples in blocks of 2 and 1
            monkeypatch.setattr(local_engine, "BLOCK_ROWS", 2 * U)
        elif sizes == "two-groups":  # two groups share each chunk and block
            monkeypatch.setattr(local_engine, "BLOCK_ROWS", (2 * _M + 1) * U)
        got = list(local_engine.simulate_groups(
            model, _GROUPS[preset], T=3, n_samples=_M, frozen=frozen, trial_salt=salt
        ))
        want = per_group_runs(preset, frozen, salt)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert _same_run(a, b)
            assert a.sigma == b.sigma
            assert np.array_equal(a.sigma_by_t, b.sigma_by_t)
        assert want[1].sigma == 0.0 and want[0].adopt_t.any()

    def test_bad_group_fails_before_any_simulation(self, small, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before every group was checked")

        monkeypatch.setattr(local_engine, "_run_chunk", no_simulation)
        groups = [[(0, 0, 1)], [], [(0, 0, 1), (3, 0, 1.5)], [(0, -1, 1)]]
        with pytest.raises(ValueError, match=r"seed group 2: seed timing 1\.5"):
            list(local_engine.simulate_groups(small, groups, T=3, n_samples=2))

    def test_no_groups(self, small):
        assert list(local_engine.simulate_groups(small, [], T=3, n_samples=2)) == []
