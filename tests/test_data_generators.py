"""Tests for the social/KG generators and dataset presets (repro.data)."""
import numpy as np
import pandas as pd
import pytest

from repro.data.datasets import PRESETS, make_dataset
from repro.data.kg import (
    COST_MIN,
    FEATS_PER_ITEM,
    N_TIERS,
    PREF_HI,
    PREF_LO,
    base_preferences,
    item_importance,
    kg_pdf,
    seed_costs,
)
from repro.data.social import base_influence, social_edges_pdf


class TestSocialEdges:
    def test_deterministic(self):
        a = social_edges_pdf(200, 5.0, seed=3)
        b = social_edges_pdf(200, 5.0, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_seed_changes_graph(self):
        a = social_edges_pdf(200, 5.0, seed=3)
        b = social_edges_pdf(200, 5.0, seed=4)
        assert not a.equals(b)

    def test_no_self_loops(self):
        e = social_edges_pdf(300, 6.0, seed=0)
        assert (e["src"] != e["dst"]).all()

    def test_no_duplicate_edges(self):
        e = social_edges_pdf(300, 6.0, seed=0)
        assert not e.duplicated().any()

    def test_edge_count_near_target(self):
        e = social_edges_pdf(500, 8.0, seed=1)
        assert 0.9 * 500 * 8 <= len(e) <= 500 * 8

    def test_ids_in_range(self):
        e = social_edges_pdf(100, 5.0, seed=2)
        assert e[["src", "dst"]].min().min() >= 0
        assert e[["src", "dst"]].max().max() < 100

    def test_heavy_tail(self):
        e = social_edges_pdf(1000, 8.0, seed=5)
        deg = np.bincount(e["src"], minlength=1000)
        # Power-law-ish: the top user has far more than the mean degree.
        assert deg.max() > 5 * deg.mean()

    def test_sorted_by_src_dst(self):
        e = social_edges_pdf(100, 5.0, seed=2)
        assert e.sort_values(["src", "dst"]).reset_index(drop=True).equals(e)

    def test_too_few_users_rejected(self):
        with pytest.raises(ValueError):
            social_edges_pdf(1, 2.0)


class TestBaseInfluence:
    def test_weighted_cascade(self):
        e = pd.DataFrame({"src": [0, 1, 2], "dst": [2, 2, 0]})
        binf = base_influence(e, 3, scale=0.6)
        assert binf[0] == pytest.approx(0.3)  # indeg(2) == 2
        assert binf[2] == pytest.approx(0.6)  # indeg(0) == 1


class TestKg:
    def test_every_item_has_one_brand_cat_tier(self):
        kg = kg_pdf(12, seed=0)
        for et in ("MADE_BY", "IN_CAT", "IN_TIER"):
            sub = kg[kg["etype"] == et]
            assert sorted(sub["src"]) == list(range(12)), et

    def test_features_per_item(self):
        kg = kg_pdf(12, seed=0)
        sup = kg[kg["etype"] == "SUPPORTS"]
        assert (sup.groupby("src").size() == FEATS_PER_ITEM).all()

    def test_deterministic(self):
        pd.testing.assert_frame_equal(kg_pdf(10, seed=1), kg_pdf(10, seed=1))

    def test_tier_count(self):
        kg = kg_pdf(30, seed=0)
        tiers = kg[kg["etype"] == "IN_TIER"]["dst"]
        assert tiers.nunique() <= N_TIERS

    def test_tiers_follow_importance(self):
        imp = item_importance(30, seed=0)
        kg = kg_pdf(30, seed=0, importance=imp)
        tiers = kg[kg["etype"] == "IN_TIER"].set_index("src")["dst"]
        top, bottom = int(np.argmax(imp)), int(np.argmin(imp))
        assert tiers[top] >= tiers[bottom]


class TestImportanceAndCosts:
    def test_importance_max_normalized(self):
        w = item_importance(50, seed=0)
        assert w.max() == pytest.approx(1.0)
        assert (w > 0).all()

    def test_uniform_variant_differs(self):
        a = item_importance(50, seed=0)
        b = item_importance(50, seed=0, random_uniform=True)
        assert not np.allclose(a, b)

    def test_base_pref_range(self):
        p = base_preferences(40, 20, seed=0)
        assert p.shape == (40, 20)
        assert (p >= PREF_LO).all() and (p <= PREF_HI).all()

    def test_costs_increase_with_degree(self):
        pref = np.full((3, 2), 0.3)
        c = seed_costs(np.array([1, 5, 10]), pref)
        assert c[2, 0] > c[1, 0] > c[0, 0]

    def test_costs_decrease_with_preference(self):
        pref = np.array([[0.1, 0.9]])
        c = seed_costs(np.array([5]), pref)
        assert c[0, 0] > c[0, 1]

    def test_cost_floor(self):
        c = seed_costs(np.array([0, 3]), np.full((2, 2), 0.5))
        assert (c >= COST_MIN).all()


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESETS:
            ds = make_dataset(name)
            m = ds.model
            assert m.n_users == PRESETS[name].n_users
            assert m.n_items == PRESETS[name].n_items
            assert len(m.src) > 0
            assert m.s_c.shape == (3, m.n_items, m.n_items)
            assert m.cost.shape == (m.n_users, m.n_items)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("nope")

    def test_deterministic(self):
        a = make_dataset("small100")
        b = make_dataset("small100")
        assert np.array_equal(a.model.base_pref, b.model.base_pref)
        assert np.array_equal(a.model.s_c, b.model.s_c)

    def test_relative_shapes(self):
        # Paper Sec. VI-A orderings preserved at lite scale.
        assert PRESETS["yelp_lite"].n_users < PRESETS["gowalla_lite"].n_users
        assert PRESETS["gowalla_lite"].n_users < PRESETS["amazon_lite"].n_users
        assert PRESETS["amazon_lite"].n_users < PRESETS["douban_lite"].n_users
        assert PRESETS["gowalla_lite"].n_items > PRESETS["amazon_lite"].n_items
        assert PRESETS["gowalla_lite"].random_importance is True  # website gone
