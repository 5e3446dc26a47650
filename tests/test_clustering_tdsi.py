"""Tests for TMI clustering/grouping and TDSI machinery."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bundlegrd import bundlegrd
from repro.core.clustering import (
    antagonistic_extent,
    group_and_order,
    identify_target_markets,
    influence_region,
    influence_regions,
    initial_average_relevance,
    TargetMarket,
)
from repro.core.nominees import candidate_pool, frozen_greedy, select_nominees
from repro.core.tdsi import (
    MarketEvaluator,
    marginals_many,
    substantial_influence,
    timing_window,
)
from repro.data.datasets import make_dataset
from repro.diffusion.local import likelihood_pi, simulate, simulate_groups
from repro.dynamics.state import ModelData
from repro.graph.local import mioa_reach, mioa_reach_many
from repro.kg.relevance import average_relevance


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


class TestIdentifyTargetMarkets:
    def test_empty_nominees(self, small):
        assert identify_target_markets(small, [], None, None) == []

    def test_markets_cover_all_nominees(self, small):
        rc, rs = initial_average_relevance(small)
        noms = [(0, 0), (1, 0), (50, 1), (99, 2)]
        markets = identify_target_markets(small, noms, rc, rs)
        covered = [n for mk in markets for n in mk.nominees]
        assert sorted(covered) == sorted(noms)

    def test_market_users_include_nominee_users(self, small):
        rc, rs = initial_average_relevance(small)
        markets = identify_target_markets(small, [(3, 0), (7, 1)], rc, rs)
        for mk in markets:
            for u, _ in mk.nominees:
                assert u in mk.users

    def test_diameter_capped(self, small):
        rc, rs = initial_average_relevance(small)
        markets = identify_target_markets(small, [(0, 0)], rc, rs)
        assert 1 <= markets[0].diameter <= small.params.d_cap

    def test_cluster_capacity(self, small):
        rc, rs = initial_average_relevance(small)
        noms = [(u, 0) for u in range(9)]
        markets = identify_target_markets(small, noms, rc, rs)
        cap = max(2, -(-len(noms) // 3))
        assert all(len(mk.nominees) <= cap for mk in markets)

    def test_market_cap_respected(self, small):
        m = dataclasses.replace(small, params=small.params.with_(market_cap=10))
        rc, rs = initial_average_relevance(m)
        markets = identify_target_markets(m, [(0, 0)], rc, rs)
        assert len(markets[0].users) <= 11  # cap + the nominee user


class TestInfluenceRegion:
    @given(
        sources=st.lists(st.integers(0, 99), min_size=1, max_size=6),
        cap=st.sampled_from([1, 5, 20, 250]),
    )
    @settings(max_examples=40, deadline=None)
    def test_properties(self, small, sources, cap):
        m = dataclasses.replace(small, params=small.params.with_(market_cap=cap))
        out = influence_region(m, sources)
        assert np.array_equal(out, np.unique(out))  # sorted and unique
        assert set(sources) <= set(out.tolist())
        reach = mioa_reach(m, sorted(set(sources)))
        ranked = sorted(np.flatnonzero(reach > 0).tolist(), key=lambda u: (-reach[u], u))
        assert set(out.tolist()) == set(ranked[:cap]) | set(sources)

    def test_source_order_irrelevant(self, small):
        a = influence_region(small, [50, 3, 3, 17])
        b = influence_region(small, [3, 17, 50])
        assert np.array_equal(a, b)

    def test_many_regions_equal_one_at_a_time(self, small):
        m = dataclasses.replace(small, params=small.params.with_(market_cap=20))
        sets = [[50, 3, 3, 17], [0], [99], [3, 17, 50], [61, 39]]
        got = influence_regions(m, sets)
        assert len(got) == len(sets)
        for region, sources in zip(got, sets):
            assert np.array_equal(region, influence_region(m, sources))
        assert np.array_equal(got[0], got[3])


class TestGrouping:
    def _mk(self, users, items):
        return TargetMarket(
            nominees=[(0, x) for x in items], users=np.array(users), diameter=1
        )

    def test_overlap_groups(self):
        m1 = self._mk([1, 2, 3], [0])
        m2 = self._mk([3, 4, 5], [1])
        m3 = self._mk([10, 11], [2])
        rs = np.zeros((3, 3))
        groups = group_and_order([m1, m2, m3], theta=1, r_bar_s=rs)
        sets = sorted(tuple(sorted(g)) for g in groups)
        assert sets == [(0, 1), (2,)]

    def test_later_link_merges_two_groups(self):
        """Links 0–3, then 1–2, then 2–3 join two existing groups into one."""
        markets = [self._mk(u, [0]) for u in ([10, 11], [20, 21], [21, 30], [11, 30], [40])]
        groups = group_and_order(markets, theta=1, r_bar_s=np.zeros((1, 1)))
        assert groups == [[0, 1, 2, 3], [4]]

    def test_theta_blocks_small_overlap(self):
        m1 = self._mk([1, 2, 3], [0])
        m2 = self._mk([3, 4, 5], [1])
        groups = group_and_order([m1, m2], theta=2, r_bar_s=np.zeros((2, 2)))
        assert sorted(len(g) for g in groups) == [1, 1]

    def test_ae_orders_ascending(self):
        # Market 0 promotes item 0 (strong substitute of item 2 in market 1);
        # market 2 promotes item 1 with no substitutes -> comes first.
        m0 = self._mk([1, 2], [0])
        m1 = self._mk([2, 3], [2])
        m2 = self._mk([3, 1], [1])
        rs = np.zeros((3, 3))
        rs[0, 2] = rs[2, 0] = 0.9
        groups = group_and_order([m0, m1, m2], theta=1, r_bar_s=rs)
        assert len(groups) == 1
        g = groups[0]
        ae = antagonistic_extent([m0, m1, m2], g, rs)
        assert g[0] == 2  # least antagonistic first
        assert ae[2] == pytest.approx(0.0)
        assert ae[0] == pytest.approx(0.9)
        assert ae[1] == pytest.approx(0.9)

    def test_example_1_ae_arithmetic(self):
        """Example 1: AE(τ1)=0.5, AE(τ2)=0.5, AE(τ3)=1.0 → τ3 last."""
        ipad, iphone, airpods = 0, 1, 2
        t1 = self._mk([1, 2], [ipad])
        t2 = self._mk([2, 3], [ipad])
        t3 = self._mk([1, 3], [iphone, airpods])
        rs = np.zeros((3, 3))
        rs[ipad, iphone] = rs[iphone, ipad] = 0.5
        groups = group_and_order([t1, t2, t3], theta=1, r_bar_s=rs)
        ae = antagonistic_extent([t1, t2, t3], groups[0], rs)
        assert ae[0] == pytest.approx(0.5)
        assert ae[1] == pytest.approx(0.5)
        assert ae[2] == pytest.approx(1.0)
        assert groups[0][-1] == 2


class TestTimingWindow:
    def test_empty_group_starts_at_one(self):
        assert timing_window([], T=5, T_market=3, prev_market_last_t=0) == [1, 2]

    def test_advances_with_t_hat(self):
        group = [(0, 0, 2)]
        assert timing_window(group, T=5, T_market=5, prev_market_last_t=0) == [2, 3]

    def test_next_market_starts_after_previous(self):
        group = [(0, 0, 2)]  # previous market ended at 2
        w = timing_window(group, T=10, T_market=3, prev_market_last_t=2)
        assert w[0] == 3

    def test_clamped_to_T(self):
        group = [(0, 0, 5)]
        assert timing_window(group, T=5, T_market=9, prev_market_last_t=0) == [5]

    def test_duration_cap(self):
        # hi limited by T_market + prev_last.
        group = [(0, 0, 3)]
        w = timing_window(group, T=10, T_market=3, prev_market_last_t=0)
        assert w == [3]


@pytest.fixture
def engine_calls(monkeypatch):
    """The groups of each evaluator engine call, and the ``likelihood_pi`` calls.

    ``calls`` holds, per ``simulate_groups`` call, its ``(model, group)``
    pairs (an evaluator passes one model per group); the model objects
    are kept, so an ``id`` names a model for the whole test.
    """
    import repro.core.tdsi as tdsi

    log = {"calls": [], "pi": 0}

    def counting_groups(models, groups, *args, **kw):
        groups = [list(g) for g in groups]
        if isinstance(models, ModelData):
            models = [models] * len(groups)
        log["calls"].append(list(zip(models, groups)))
        return simulate_groups(models, groups, *args, **kw)

    def counting_pi(*args):
        log["pi"] += 1
        return likelihood_pi(*args)

    monkeypatch.setattr(tdsi, "simulate_groups", counting_groups)
    monkeypatch.setattr(tdsi, "likelihood_pi", counting_pi)
    return log


def _mc(model: ModelData, k: int) -> ModelData:
    """``model`` with ``k`` planning samples (``params.mc_plan``)."""
    return dataclasses.replace(model, params=model.params.with_(mc_plan=k))


class TestMarketEvaluator:
    def test_caching(self, small, engine_calls):
        sub = small.subgraph(np.arange(30))
        ev = MarketEvaluator(_mc(sub, 4), T=3)
        a = ev.sigma_pi([(0, 0, 1)])
        b = ev.sigma_pi([(0, 0, 1)])
        assert a == b
        assert len(engine_calls["calls"]) == 1

    def test_out_of_market_seeds_dropped(self, small):
        sub = small.subgraph(np.arange(30))
        ev = MarketEvaluator(_mc(sub, 4), T=3)
        a = ev.sigma_pi([(0, 0, 1), (99, 0, 1)])  # 99 outside
        b = ev.sigma_pi([(0, 0, 1)])
        assert a == b

    def test_one_simulation_per_seed_group(self, small, engine_calls):
        sub = small.subgraph(np.arange(30))
        ev = MarketEvaluator(_mc(sub, 4), T=3)
        group = [(0, 0, 1), (5, 1, 2), (99, 0, 1)]  # 99 is outside the market
        rc, rs = ev.average_relevance(group)
        ev.sigma_pi(group)
        ev.sigma_pi(group[::-1])
        ev.average_relevance(group[:2])
        assert [[g for _, g in call] for call in engine_calls["calls"]] == [
            [[(0, 0, 1), (5, 1, 2)]]
        ]
        fresh = simulate(sub, [(0, 0, 1), (5, 1, 2)], 3, 4)
        assert np.array_equal(rc, average_relevance(fresh.state.wc, sub.s_c))
        assert np.array_equal(rs, average_relevance(fresh.state.ws, sub.s_s))
        assert ev.sigma_pi(group) == (fresh.sigma, likelihood_pi(sub, fresh.state))

    def test_one_engine_call_per_request(self, small, engine_calls):
        ev = MarketEvaluator(_mc(small, 3), T=2)
        groups = [[(0, 0, 1)], [(5, 1, 2), (0, 0, 1)], [], [(9, 2, 1)]]
        first = ev.sigmas(groups)
        assert len(engine_calls["calls"]) == 1
        assert len(engine_calls["calls"][0]) == len(groups) - 1  # σ(∅) is not simulated
        again = ev.sigmas([g[::-1] for g in groups[::-1]] + groups)
        assert again == first[::-1] + first
        assert len(engine_calls["calls"]) == 1  # repeated and reordered: no call
        want = [simulate(small, g, 2, 3).sigma for g in groups]
        assert first == want
        ev.sigmas(groups[:2] + [[(7, 0, 2)], [(8, 0, 1)], [(7, 0, 2)]])
        assert [len(call) for call in engine_calls["calls"]] == [3, 2]

    def test_empty_group_sigma_is_not_simulated(self, small, engine_calls):
        sub = small.subgraph(np.arange(30))
        ev = MarketEvaluator(_mc(sub, 4), T=3)
        assert ev.sigmas([[]]) == [simulate(sub, [], 3, 4).sigma]
        assert ev.sigmas([[(99, 0, 1)]]) == [0.0]  # outside the market: empty too
        assert engine_calls["calls"] == []
        ev.sigma_pi([])  # a π request still simulates the empty group
        assert [[g for _, g in call] for call in engine_calls["calls"]] == [[[]]]

    def test_sigma_only_request_computes_no_pi(self, small, engine_calls):
        ev = MarketEvaluator(_mc(small.subgraph(np.arange(40)), 4), T=3)
        ev.sigmas([[(0, 0, 1)], [(0, 0, 1), (3, 1, 2)], []])
        assert engine_calls["pi"] == 0
        si = substantial_influence(ev, [(0, 0, 1)], [(3, 1, 1), (3, 1, 2)], T=3)
        assert len(si) == 2
        assert engine_calls["pi"] == 3  # the seed group and its two extensions

    @pytest.mark.parametrize("base", [[], [(0, 0, 1)], [(0, 0, 1), (5, 1, 2), (99, 0, 1)]])
    def test_marginals_equal_sigma_differences(self, small, base):
        sub = small.subgraph(np.arange(30))
        ext = [[(3, 1, 1)], [(3, 1, 2), (7, 0, 1)], [(99, 2, 1)], []]
        got = MarketEvaluator(_mc(sub, 4), T=3).marginals(base, ext)
        s0, *s = MarketEvaluator(_mc(sub, 4), T=3).sigmas([base] + [base + e for e in ext])
        assert got == [s1 - s0 for s1 in s]
        assert got[2:] == [0.0, 0.0]  # out-of-market and empty extensions add nothing

    def test_marginals_many_equal_per_evaluator_marginals(self, small, engine_calls):
        small3 = _mc(small, 3)
        subs = [small3.subgraph(np.arange(30)), small3.subgraph(np.arange(20, 70)), small3]
        base = [(21, 0, 1), (5, 1, 1)]
        exts = [[[(25, 1, 1)], [(3, 2, 1)]], [[(40, 0, 1)]], [[(61, 0, 1)], [(62, 2, 1)], []]]
        requests = [
            (MarketEvaluator(sm, T=2), base, ext) for sm, ext in zip(subs, exts)
        ]
        got = marginals_many(requests + [(requests[0][0], [], exts[0][:1])])
        assert len(engine_calls["calls"]) == 1  # every evaluator's groups, one call
        assert {id(m) for m, _ in engine_calls["calls"][0]} == {id(sm) for sm in subs}
        want = [
            MarketEvaluator(sm, T=2).marginals(base, ext)
            for sm, ext in zip(subs, exts)
        ]
        assert got[:3] == want
        assert got[3] == [requests[0][0].sigmas([exts[0][0]])[0]]
        assert got[2][2] == 0.0 and all(g > 0 for g in got[0])

    def test_marginals_many_needs_shared_settings(self, small):
        sub = small.subgraph(np.arange(30))
        a = MarketEvaluator(_mc(sub, 3), T=2)
        for b, match in [
            (MarketEvaluator(_mc(sub, 3), T=3), "share T and frozen"),
            (MarketEvaluator(_mc(sub, 3), T=2, frozen=True), "share T and frozen"),
            # Unequal sample counts are unequal params: the engine rejects them.
            (MarketEvaluator(_mc(sub, 4), T=2), "subgraphs of one instance"),
        ]:
            with pytest.raises(ValueError, match=match):
                marginals_many([(a, [], [[(0, 0, 1)]]), (b, [], [[(1, 0, 1)]])])

    @pytest.mark.parametrize("frozen", [True, False])
    def test_sigma_equals_simulate(self, small, frozen):
        group = [(61, 0, 1), (61, 2, 1), (39, 5, 1)]
        full = MarketEvaluator(_mc(small, 6), T=1, frozen=frozen)
        assert full.sigmas([group]) == [simulate(small, group, 1, 6, frozen=frozen).sigma]
        sub = small.subgraph(np.arange(20, 70))
        local = MarketEvaluator(_mc(sub, 6), T=1, frozen=frozen)
        in_sub = [(u - 20, x, t) for u, x, t in group]
        want = simulate(sub, in_sub, 1, 6, frozen=frozen).sigma
        assert local.sigmas([group + [(99, 0, 1)]]) == [want]

    def test_si_increases_with_viable_candidate(self, small):
        sub = small.subgraph(np.arange(50))
        ev = MarketEvaluator(_mc(sub, 8), T=3)
        (si,) = substantial_influence(ev, [], [(0, 0, 1)], T=3)
        assert np.isfinite(si)
        # Seeding someone adds at least their own adoption to sigma.
        s0, _ = ev.sigma_pi([])
        s1, _ = ev.sigma_pi([(0, 0, 1)])
        assert s1 > s0


@pytest.mark.parametrize(
    "planner",
    [
        lambda m: select_nominees(m, 12, max_pairs=40),
        lambda m: frozen_greedy(
            m, candidate_pool(m, max_pairs=40), lambda cs: [(u, x, 1) for u, x in cs],
            cost=lambda c: float(m.cost[c]), budget=12,
        ),
        lambda m: bundlegrd(m, 15, 3),
    ],
    ids=["nominees-local", "nominees-full", "bundlegrd"],
)
def test_planners_never_simulate_a_group_twice(small, engine_calls, planner):
    """No (model, localized group) pair reaches the engine twice."""
    assert planner(small)
    seen = [(id(model), tuple(sorted(g))) for call in engine_calls["calls"] for model, g in call]
    assert len(engine_calls["calls"]) > 1
    assert len(seen) == len(set(seen))


def test_tmi_first_pass_is_one_search_and_one_engine_call(small, engine_calls, monkeypatch):
    """The whole candidate pool: one MIOA search, then one engine call over its regions."""
    import repro.core.clustering as clustering

    searches = []

    def counting_reach(model, source_sets):
        searches.append([list(s) for s in source_sets])
        return mioa_reach_many(model, source_sets)

    monkeypatch.setattr(clustering, "mioa_reach_many", counting_reach)
    budget = 12
    fits = [c for c in candidate_pool(small, max_pairs=40) if small.cost[c] <= budget]
    users = sorted({u for u, _ in fits})
    assert select_nominees(small, budget, max_pairs=40)
    assert len(searches) == 1
    assert sorted(s[0] for s in searches[0]) == users
    first, *later = engine_calls["calls"]
    assert len(first) == len(fits)  # one group per candidate: σ(∅) is not simulated
    assert len({id(m) for m, _ in first}) == len(users)
    assert all(len(call) <= 2 for call in later)  # CELF re-scores one candidate alone
