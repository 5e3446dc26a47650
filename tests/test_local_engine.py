"""Tests for the local Monte-Carlo diffusion engine (repro.diffusion.local)."""
import dataclasses

import numpy as np
import pytest

import repro.diffusion.local as local_engine
from repro.data.datasets import make_dataset
from repro.diffusion.local import likelihood_pi, simulate
from repro.diffusion.sigma import sigma_from_adopt_t
from repro.dynamics import kernels
from repro.dynamics.state import ModelData
from repro.params import DEFAULT
from repro.rng import fold_from, u01_from


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
        with pytest.raises(ValueError, match="T must be <= 32767"):
            simulate_spark(None, small, [], T=32768, n_samples=2)
        with pytest.raises(ValueError, match="at most 255 items"):
            simulate_spark(None, line_model(0.5, n_items=256), [], T=1, n_samples=2)

    def test_horizon_beyond_int16_rejected(self, small):
        """``adopt_t`` holds promotion indices as int16."""
        assert local_engine.MAX_T == 32767
        with pytest.raises(ValueError, match="T must be <= 32767"):
            simulate(small, [], T=32768, n_samples=1)
        with pytest.raises(ValueError, match=r"seed group 0: T must be <= 32767"):
            local_engine.simulate_groups([small, small], [[], []], T=40_000, n_samples=1)
        res = simulate(line_model(0.5), [(0, 0, 32767)], T=32767, n_samples=1)
        assert res.adopt_t[0, 0, 0] == 32767
        assert res.sigma == res.sigma_by_t[32767] >= 1.0

    def test_items_beyond_uint8_count_rejected(self):
        """Common adoptions are counted in uint8, exact up to 255 items."""
        assert local_engine.MAX_ITEMS == 255
        with pytest.raises(ValueError, match="at most 255 items, got 256"):
            simulate(line_model(0.5, n_items=256), [], T=1, n_samples=1)
        res = simulate(line_model(0.5, n_items=255), [(0, x, 1) for x in range(255)], T=1,
                       n_samples=1)
        assert res.adopt_t[0, 0].all() and res.sigma >= 255

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

    def test_items_beyond_uint8_count_rejected(self):
        """π counts common adoptions in uint8, as the engine does."""
        from repro.dynamics.state import init_state

        m = line_model(0.5, n_items=256)
        with pytest.raises(ValueError, match="at most 255 items, got 256"):
            likelihood_pi(m, init_state(m, 1))

    @pytest.mark.parametrize("M", [1, 4, 6])
    @pytest.mark.parametrize("case", ["small100", "yelp_lite", "yelp_lite/250"])
    def test_batched_equals_per_sample(self, request, case, M):
        """One batch over all samples gives the per-sample loop's bits."""
        model = request.getfixturevalue("small" if case == "small100" else "yelp")
        if case.endswith("/250"):
            model = model.subgraph(np.arange(250))
        top = np.argsort(-model.out_deg)[:4].tolist()
        seeds = [(top[0], 0, 1), (top[1], 1, 1), (top[2], 0, 2), (top[3], 2, 3)]
        state = simulate(model, seeds, 3, M).state  # dynamic weights after a campaign
        assert state.adopted.any(axis=(1, 2)).all()
        assert likelihood_pi(model, state) == _pi_per_sample(model, state)


def _pi_per_sample(model, state):
    """``likelihood_pi`` one sample at a time: the reference of the batch form."""
    p = model.params
    total = 0.0
    for s in range(state.n_samples):
        adopted = state.adopted[s]
        ad_count = adopted.sum(axis=1).astype(np.int64)
        inter = (adopted[model.src] & adopted[model.dst]).sum(axis=1)
        union = ad_count[model.src] + ad_count[model.dst] - inter
        act = kernels.influence_strength(
            model.base_inf, inter, union, p.gamma, p.act_floor, p.act_cap
        )
        neglog = np.zeros((model.n_users, model.n_items))
        contrib = adopted[model.src] * (-np.log1p(-np.minimum(act, 1 - 1e-12)))[:, None]
        np.add.at(neglog, model.dst, contrib)
        ais = 1.0 - np.exp(-neglog)
        pref_rows = kernels.preference_batch(
            model.base_pref, adopted, state.wc[s], state.ws[s], model.s_c, model.s_s,
            p.beta_c, p.beta_s, p.pref_floor,
        )
        total += float((ais * pref_rows * ~adopted).sum())
    return total / state.n_samples


@pytest.fixture(scope="module")
def yelp():
    return make_dataset("yelp_lite").model


@pytest.fixture(scope="module")
def amazon():
    return make_dataset("amazon_lite").model


_SEED_GROUPS = {
    "small100": [(0, 0, 1), (5, 2, 1), (9, 0, 2), (12, 1, 2), (71, 3, 3)],
    "amazon_lite": [(299, 9, 1), (1740, 0, 1), (299, 0, 2), (919, 0, 2), (733, 23, 3)],
}


# The amazon_lite flagship cell's seeds (Dysim, b=60, T=10) and its σ at
# M=16, as the committed table_results.md has them.
_FLAGSHIP_SEEDS = [
    (299, 9, 1), (1740, 0, 1), (299, 0, 2), (919, 0, 2), (199, 0, 3),
    (201, 0, 3), (733, 0, 4), (1228, 0, 5), (258, 0, 5), (744, 0, 5),
    (186, 0, 5), (1070, 0, 6), (1740, 9, 7), (201, 9, 7), (258, 14, 8),
    (733, 23, 8), (745, 23, 8),
]


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
        """One group is one block at any ``BLOCK_ROWS``; its events run one by one."""
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

    def test_flagship_block_equals_one_sample_blocks(self, amazon):
        """The flagship group's 16 samples, stepped as one block or one by one."""
        got = simulate(amazon, _FLAGSHIP_SEEDS, T=10, n_samples=16)
        one = [
            simulate(amazon, _FLAGSHIP_SEEDS, T=10, n_samples=1, first_sample=s)
            for s in range(16)
        ]
        adopt_t = np.concatenate([r.adopt_t for r in one])
        assert np.array_equal(got.adopt_t, adopt_t)
        assert np.array_equal(got.state.wc, np.concatenate([r.state.wc for r in one]))
        assert np.array_equal(got.state.ws, np.concatenate([r.state.ws for r in one]))
        sigma, by_t = sigma_from_adopt_t(adopt_t, amazon.importance, 10)
        assert got.sigma == sigma == 596.683551567824
        assert np.array_equal(got.sigma_by_t, by_t)

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
        elif sizes == "split":  # the groups split one per block, each over BLOCK_ROWS
            monkeypatch.setattr(local_engine, "BLOCK_ROWS", 2 * U)
        elif sizes == "two-groups":  # two groups share each block
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

        monkeypatch.setattr(local_engine, "_run_block", no_simulation)
        groups = [[(0, 0, 1)], [], [(0, 0, 1), (3, 0, 1.5)], [(0, -1, 1)]]
        with pytest.raises(ValueError, match=r"seed group 2: seed timing 1\.5"):
            list(local_engine.simulate_groups(small, groups, T=3, n_samples=2))

    def test_no_groups(self, small):
        assert list(local_engine.simulate_groups(small, [], T=3, n_samples=2)) == []


def _submodel_groups(model):
    """Groups on submodels of mixed sizes (one repeated) and the full model.

    Each group's seeds are in its own model's local ids.
    """
    U = model.n_users
    a = model.subgraph(np.arange(0, U, 2))  # half the users
    b = model.subgraph(np.arange(U // 3))
    c = model.subgraph([1, 5, 9, 12, 40])
    models = [a, b, model, a, c, b, a]
    groups = [
        [(0, 0, 1), (3, 2, 2)],
        [(1, 1, 1)],
        [(0, 0, 1), (5, 2, 1), (9, 0, 2)],
        [],
        [(0, 0, 1), (2, 1, 3)],
        [(4, 0, 2), (1, 1, 1)],
        [(7, 3, 1)],
    ]
    return models, groups


# Per field a model must share with the others of one call: a change to it.
_OTHER_INSTANCE = {
    "s_c": lambda m: {"s_c": m.s_c.copy()},
    "s_s": lambda m: {"s_s": m.s_s.copy()},
    "params": lambda m: {"params": m.params.with_(eta=m.params.eta / 2)},
    "seed": lambda m: {"seed": m.seed + 1},
    "importance": lambda m: {"importance": m.importance * 2},
    "n_items": lambda m: {
        "n_items": m.n_items - 1, "base_pref": m.base_pref[:, :-1], "cost": m.cost[:, :-1],
    },
}


class TestSimulateGroupsSubmodels:
    """Groups on different submodels of one instance keep their own bits."""

    @pytest.mark.parametrize("preset", ["small100", "amazon_lite"])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("sizes", ["default", "one", "split"])
    def test_equals_per_group_simulate(self, request, monkeypatch, preset, frozen, sizes):
        model = request.getfixturevalue("small" if preset == "small100" else "amazon")
        models, groups = _submodel_groups(model)
        want = [simulate(m, g, T=3, n_samples=_M, frozen=frozen) for m, g in zip(models, groups)]
        if sizes == "one":
            monkeypatch.setattr(local_engine, "BLOCK_ROWS", 1)
            monkeypatch.setattr(local_engine, "CHUNK_ROWS", 1)
        elif sizes == "split":
            # Blocks of two full-model samples' rows: the full-model group
            # (three samples) is a block of its own, larger than
            # BLOCK_ROWS, and smaller groups share blocks.
            monkeypatch.setattr(local_engine, "BLOCK_ROWS", 2 * model.n_users)
            cuts = local_engine._cuts(np.array([_M * m.n_users for m in models]))
            assert (2, 3) in cuts and any(b - a > 1 for a, b in cuts)
        got = list(local_engine.simulate_groups(models, groups, T=3, n_samples=_M, frozen=frozen))
        assert len(got) == len(want)
        for a, b, m in zip(got, want, models):
            assert a.adopt_t.shape == (_M, m.n_users, m.n_items)
            assert _same_run(a, b)
            assert a.sigma == b.sigma
            assert np.array_equal(a.sigma_by_t, b.sigma_by_t)
            # The block's one σ count gives each group its own count's bits.
            sigma, by_t = sigma_from_adopt_t(a.adopt_t, m.importance, 3)
            assert a.sigma == sigma and np.array_equal(a.sigma_by_t, by_t)
        assert sum(r.sigma > 0 for r in want) == len(want) - 1

    def test_one_model_equals_model_list(self, small):
        groups = _GROUPS["small100"]
        one = list(local_engine.simulate_groups(small, groups, T=3, n_samples=_M))
        many = list(local_engine.simulate_groups([small] * len(groups), groups, T=3, n_samples=_M))
        for a, b in zip(one, many):
            assert _same_run(a, b) and a.sigma == b.sigma

    @pytest.mark.parametrize("change", sorted(_OTHER_INSTANCE))
    def test_mixing_instances_rejected(self, small, change):
        groups = [[(0, 0, 1)], [(1, 0, 1)]]
        same = dataclasses.replace(small)  # a copy sharing the same arrays
        assert len(list(local_engine.simulate_groups([small, same], groups, T=1, n_samples=1))) == 2
        other = dataclasses.replace(small, **_OTHER_INSTANCE[change](small))
        with pytest.raises(ValueError, match="subgraphs of one instance"):
            local_engine.simulate_groups([small, other], groups, T=1, n_samples=1)

    def test_model_count_must_match(self, small):
        with pytest.raises(ValueError, match="2 models for 1 seed groups"):
            local_engine.simulate_groups([small, small], [[(0, 0, 1)]], T=1, n_samples=1)

    def test_seeds_checked_against_their_own_model(self, small):
        sub = small.subgraph(np.arange(10))
        with pytest.raises(ValueError, match=r"seed group 1: seed user 50 outside \[0, 10\)"):
            local_engine.simulate_groups([small, sub], [[(50, 0, 1)], [(50, 0, 1)]], T=1, n_samples=1)


def _dense_trials(st, blk, prefix, e_idx, ev_s, ev_x, ev_gd, frozen):
    """The dense ``_trials`` the engine replaced: the test oracle of its hits.

    It zeroes ``p_ext`` where no trial is drawn, takes the pairs with a
    2-D ``np.nonzero``, gathers ``s_c`` strided, counts common adoptions
    in int64 and compares float draws ``u01_from(…) < p``.
    """
    p = st.params
    I = st.n_items
    src, dst = st.src[e_idx], st.dst[e_idx]
    if frozen:
        act = st.act0[e_idx]
        pref_x = st.pref0[blk.user[ev_gd], ev_x]
    else:
        ev_gs = blk.start[ev_s] + src
        inter = (blk.adopted[ev_gs] & blk.adopted[ev_gd]).sum(axis=1)
        union = blk.ad_count[ev_gs] + blk.ad_count[ev_gd] - inter
        act = kernels.influence_strength(
            st.base_inf[e_idx], inter, union, p.gamma, p.act_floor, p.act_cap
        )
        pref_x = blk.pref[ev_gd, ev_x]
    p_promo = act * pref_x
    r_rows = np.einsum("em,emi->ei", blk.wc[ev_gd], st.s_c[:, ev_x, :].transpose(1, 0, 2))
    p_ext = p.ext_scale * p_promo[:, None] * r_rows
    p_ext[blk.adopted[ev_gd]] = 0.0
    p_ext[np.arange(len(ev_x)), ev_x] = 0.0
    er, ey = np.nonzero(p_ext > 0)
    h = fold_from(prefix[ev_s], src, dst, ev_x)
    hit = u01_from(h, ev_x) < p_promo
    ext = u01_from(h[er], ey) < p_ext[er, ey]
    return np.concatenate([ev_gd[hit] * I + ev_x[hit], ev_gd[er[ext]] * I + ey[ext]])


def _saturated_model():
    """255 items, each related to every other item: users 0 and 1 share
    254 adoptions, so common-adoption counts reach the uint8 range's top,
    and a trial drawn on an adopted item would likely hit."""
    I = local_engine.MAX_ITEMS
    s_c = np.full((1, I, I), 0.5)
    s_c[0, np.arange(I), np.arange(I)] = 0.0
    m = dataclasses.replace(line_model(0.6, n_items=I), s_c=s_c, s_s=np.zeros_like(s_c))
    seeds = [(0, x, 1) for x in range(I)] + [(1, x, 1) for x in range(1, I)]
    return m, seeds


class TestTrialsExact:
    """The engine's ``_trials`` returns the dense oracle's hit keys, in order."""

    @pytest.mark.parametrize("case", ["small100", "amazon_lite", "saturated"])
    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("chunk", ["default", "one"])
    def test_equals_dense_oracle(self, request, monkeypatch, case, frozen, chunk):
        if case == "saturated":
            model, seeds = _saturated_model()
        else:
            model, seeds = _case(request, case)
        if chunk == "one":
            monkeypatch.setattr(local_engine, "CHUNK_ROWS", 1)
        trials = local_engine._trials
        seen = {"calls": 0, "hits": 0, "inter": 0}

        def checked(st, blk, prefix, e_idx, ev_s, ev_x, ev_gd, frozen):
            got = trials(st, blk, prefix, e_idx, ev_s, ev_x, ev_gd, frozen)
            want = _dense_trials(st, blk, prefix, e_idx, ev_s, ev_x, ev_gd, frozen)
            assert np.array_equal(got, want)
            # The contiguous [I, nC, I] gather reduces with the strided one's bits.
            assert np.array_equal(
                np.einsum("em,emi->ei", blk.wc[ev_gd], st.s_cT[ev_x]),
                np.einsum("em,emi->ei", blk.wc[ev_gd], st.s_c[:, ev_x, :].transpose(1, 0, 2)),
            )
            ev_gs = blk.start[ev_s] + st.src[e_idx]
            inter = (blk.adopted[ev_gs] & blk.adopted[ev_gd]).sum(axis=1)
            seen["inter"] = max(seen["inter"], int(inter.max()))
            seen["calls"] += 1
            seen["hits"] += len(got)
            return got

        monkeypatch.setattr(local_engine, "_trials", checked)
        res = simulate(model, seeds, T=3, n_samples=3, frozen=frozen)
        assert seen["calls"] > 0 and seen["hits"] > 0 and res.sigma > 0
        if case == "saturated":
            assert seen["inter"] == local_engine.MAX_ITEMS - 1
