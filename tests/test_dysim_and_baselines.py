"""End-to-end tests for Dysim and the baselines on small100."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bundlegrd import bundlegrd
from repro.baselines.cr_greedy import cr_greedy_timings
from repro.baselines.hag import hag
from repro.baselines.opt import opt_bruteforce
from repro.baselines.ps import ps
from repro.core.dysim import dysim
from repro.core.nominees import (
    candidate_pool,
    candidate_users,
    frozen_greedy,
    lazy_greedy,
    select_nominees,
)
from repro.data.datasets import make_dataset
from repro.diffusion.local import simulate
from repro.graph.local import mioa_reach_many


@pytest.fixture(scope="module")
def small():
    return make_dataset("small100").model


def _cost(model, seeds):
    return sum(float(model.cost[u, x]) for u, x, *_ in seeds)


@st.composite
def coverage_instances(draw):
    """A weighted coverage objective over candidate sets, with costs and a budget."""
    n_elems = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(0, 9), min_size=n_elems, max_size=n_elems))
    element = st.integers(0, n_elems - 1)
    sets = draw(st.lists(st.frozensets(element, max_size=5), min_size=1, max_size=10))
    costs = draw(st.lists(st.integers(1, 5), min_size=len(sets), max_size=len(sets)))
    budget = draw(st.integers(0, 20))
    return weights, sets, costs, budget


def _coverage_gain(weights, sets, covered, c):
    return float(sum(weights[e] for e in sets[c] - covered))


def _plain_greedy(weights, sets, cost, budget):
    """Non-lazy greedy: re-score every candidate that still fits, each round."""
    picks, spent, covered = [], 0.0, set()
    while True:
        fits = [c for c in range(len(sets)) if c not in picks and spent + cost(c) <= budget]
        if not fits:
            return picks
        best = min(fits, key=lambda c: (-_coverage_gain(weights, sets, covered, c) / cost(c), c))
        picks.append(best)
        spent += cost(best)
        covered |= sets[best]


class TestLazyGreedy:
    @given(inst=coverage_instances(), unit_cost=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_greedy(self, inst, unit_cost):
        """On monotone submodular coverage, CELF picks what plain greedy picks."""
        weights, sets, costs, budget = inst
        cost = costs.__getitem__
        if unit_cost:
            cost, budget = None, math.inf
        picks: list[int] = []

        def gains(cands):
            covered = set().union(*(sets[c] for c in picks))
            return [_coverage_gain(weights, sets, covered, c) for c in cands]

        for c in lazy_greedy(range(len(sets)), gains, cost=cost, budget=budget):
            picks.append(c)
        assert picks == _plain_greedy(weights, sets, cost or (lambda c: 1.0), budget)

    def test_one_full_scoring_then_single_rescores(self):
        """``gains`` sees every affordable candidate once, then one stale candidate a call."""
        sets = [{0, 1}, {1, 2}, {0, 2}, {3}, {0, 1, 2, 3}]
        costs = [1, 1, 1, 1, 9]
        calls: list[list[int]] = []
        picks: list[int] = []

        def gains(cands):
            calls.append(list(cands))
            covered = set().union(*(sets[c] for c in picks))
            return [float(len(sets[c] - covered)) for c in cands]

        for c in lazy_greedy(range(len(sets)), gains, cost=costs.__getitem__, budget=3):
            picks.append(c)
        assert calls[0] == [0, 1, 2, 3]  # candidate 4 costs more than the budget
        assert len(calls) > 1
        assert all(len(call) == 1 for call in calls[1:])
        assert len(picks) == 3

    def test_nothing_affordable_scores_nothing(self):
        def gains(cands):
            raise AssertionError("scored an unaffordable candidate")

        assert list(lazy_greedy([(0, 0), (1, 0)], gains, cost=lambda c: 2.0, budget=1)) == []


class TestCandidatePoolAndNominees:
    def test_pool_size_and_uniqueness(self, small):
        pool = candidate_pool(small, max_pairs=30)
        assert len(pool) == 30
        assert len(set(pool)) == 30

    def test_pool_users_are_high_degree(self, small):
        pool = candidate_pool(small, max_pairs=20)
        top = set(np.argsort(-small.out_deg)[: small.params.cand_users])
        assert all(u in top for u, _ in pool)

    def test_nominees_respect_budget(self, small):
        noms = select_nominees(small, budget=10, max_pairs=20)
        assert _cost(small, [(u, x) for u, x in noms]) <= 10

    def test_zero_budget_selects_nothing(self, small):
        assert select_nominees(small, budget=0, max_pairs=10) == []

    def test_bigger_budget_never_fewer(self, small):
        a = select_nominees(small, budget=6, max_pairs=20)
        b = select_nominees(small, budget=14, max_pairs=20)
        assert len(b) >= len(a)

    def test_frozen_full_scope_runs(self, small):
        noms = frozen_greedy(
            small, candidate_pool(small, max_pairs=15), lambda cs: [(u, x, 1) for u, x in cs],
            cost=lambda c: float(small.cost[c]), budget=8,
        )
        assert _cost(small, noms) <= 8
        assert len(noms) >= 1


class TestDysim:
    def test_seed_group_valid(self, small):
        res = dysim(small, budget=10, T=4, max_pairs=30)
        assert res.seeds
        assert _cost(small, res.seeds) <= 10
        for u, x, t in res.seeds:
            assert 0 <= u < small.n_users
            assert 0 <= x < small.n_items
            assert 1 <= t <= 4

    def test_every_nominee_becomes_seed(self, small):
        res = dysim(small, budget=10, T=4, max_pairs=30)
        assert sorted((u, x) for u, x, _ in res.seeds) == sorted(res.nominees)

    def test_deterministic(self, small):
        a = dysim(small, budget=8, T=3, max_pairs=20)
        b = dysim(small, budget=8, T=3, max_pairs=20)
        assert a.seeds == b.seeds

    def test_empty_budget(self, small):
        res = dysim(small, budget=0.5, T=3)  # below every seed cost (>= 1)
        assert res.seeds == []

    def test_markets_partition_nominees(self, small):
        res = dysim(small, budget=10, T=4, max_pairs=30)
        market_noms = [n for mk in res.markets for n in mk.nominees]
        assert sorted(market_noms) == sorted(res.nominees)

    def test_groups_cover_markets(self, small):
        res = dysim(small, budget=10, T=4, max_pairs=30)
        idx = sorted(i for g in res.groups for i in g)
        assert idx == list(range(len(res.markets)))


@pytest.mark.parametrize("planner", [dysim, hag, ps, bundlegrd, opt_bruteforce])
@pytest.mark.parametrize("budget, T", [(0, 3), (-5, 3), (8, 0), (8, -1)])
def test_planners_reject_bad_budget_and_T(small, planner, budget, T):
    with pytest.raises(ValueError, match="budget must be > 0|T must be >= 1"):
        planner(small, budget, T)


class TestBaselines:
    @pytest.mark.parametrize("fn", [hag, ps, bundlegrd])
    def test_budget_and_timings(self, small, fn):
        seeds = fn(small, 12, 4)
        assert seeds, fn.__name__
        assert _cost(small, seeds) <= 12 + 1e-9
        assert all(1 <= t <= 4 for _, _, t in seeds)

    def test_bundlegrd_same_user_same_timing(self, small):
        seeds = bundlegrd(small, 15, 4)
        per_user = {}
        for u, x, t in seeds:
            per_user.setdefault(u, set()).add(t)
        assert all(len(ts) == 1 for ts in per_user.values())

    def test_ps_diversifies_users(self, small):
        seeds = ps(small, 15, 3)
        users = [u for u, _, _ in seeds]
        assert len(set(users)) >= 2

    def test_cr_greedy_assigns_all(self, small):
        pairs = [(0, 0), (1, 1), (2, 0)]
        seeds = cr_greedy_timings(small, [[pr] for pr in pairs], T=5)
        assert sorted((u, x) for u, x, _ in seeds) == sorted(pairs)
        assert all(1 <= t <= 5 for _, _, t in seeds)

    def test_cr_greedy_empty(self, small):
        assert cr_greedy_timings(small, [], T=3) == []


def _ps_plain_pairs(model, budget):
    """PS's pair greedy as a plain loop that re-scores every candidate each round.

    The oracle of :func:`ps`'s lazy greedy: the same scores, the best
    score per cost first, ties by ascending ``(u, x)``.
    """
    cand_users = candidate_users(model)
    mean_pref = model.pref0.mean(axis=0)
    reach = dict(zip(cand_users, mioa_reach_many(model, [[u] for u in cand_users])))
    cov = np.zeros((model.n_users, model.n_items))
    selected: list[tuple[int, int]] = []
    spent = 0.0
    while True:
        best = None
        taken = set(selected)
        for u in cand_users:
            base = reach[u][:, None] * (1.0 - cov)
            scores = model.importance * (1.0 + mean_pref * base.sum(axis=0))
            for x in range(model.n_items):
                if (u, x) in taken:
                    continue
                c = float(model.cost[u, x])
                if spent + c > budget:
                    continue
                key = (scores[x] / c, -u, -x)
                if best is None or key > best[0]:
                    best = (key, u, x, c)
        if best is None:
            return selected
        _, u, x, c = best
        selected.append((u, x))
        spent += c
        cov[:, x] = 1.0 - (1.0 - cov[:, x]) * (1.0 - reach[u])


_PS_CELLS = [("small100", b) for b in (4, 6, 8, 10, 12)] + [
    (name, b)
    for name, budgets in {
        "yelp_lite": (15, 25, 35, 45),
        "amazon_lite": (40, 60, 80, 100),
        "douban_lite": (40, 60, 80, 100),
        "gowalla_lite": (40, 60, 80, 100),
    }.items()
    for b in budgets
]


@pytest.fixture(scope="module")
def preset_models():
    models = {}

    def get(name):
        if name not in models:
            models[name] = make_dataset(name).model
        return models[name]

    return get


@pytest.mark.parametrize("name, budget", _PS_CELLS)
def test_ps_picks_what_plain_greedy_picks(preset_models, monkeypatch, name, budget):
    """Every T1/T3 budget, on all five presets: PS's pairs, in pick order."""
    model = preset_models(name)
    monkeypatch.setattr(
        "repro.baselines.ps.cr_greedy_timings",
        lambda model, groups, T: [(u, x, 1) for ((u, x),) in groups],
    )
    got = [(u, x) for u, x, _ in ps(model, budget, 10)]
    assert got and got == _ps_plain_pairs(model, budget)


class TestOpt:
    def test_respects_budget(self, small):
        seeds = opt_bruteforce(small, budget=5, T=2)
        assert _cost(small, seeds) <= 5

    def test_beats_single_candidates(self, small):
        seeds = opt_bruteforce(small, budget=8, T=2)
        best = simulate(small, seeds, 2, 8).sigma
        for u, x in candidate_pool(small, max_pairs=4):
            if small.cost[u, x] <= 8:
                single = simulate(small, [(u, x, 1)], 2, 8).sigma
                assert best >= single - 1e-9

    def test_empty_when_nothing_affordable(self, small):
        assert opt_bruteforce(small, budget=0.5, T=2) == []
