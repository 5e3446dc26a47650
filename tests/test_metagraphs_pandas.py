"""Tests for meta-graph definitions and pandas instance counting."""
import numpy as np
import pandas as pd
import pytest

from repro.data.kg import kg_pdf
from repro.kg.metagraphs import (
    COMP,
    DEFAULT_METAGRAPHS,
    SUBS,
    MetaGraph,
    relevance_table_pandas,
    relevance_tensor,
)


def hand_kg() -> pd.DataFrame:
    """Fig. 1(a)-style KG: items 0 (iPhone), 1 (AirPods), 2 (charger).

    Items 0 and 1 share features 0 and 1 (two instances of mC1) and the
    brand; items 0 and 2 share only feature 0; 1 and 2 share a category.
    """
    rows = [
        (0, "ITEM", "SUPPORTS", 0, "FEATURE"),
        (0, "ITEM", "SUPPORTS", 1, "FEATURE"),
        (1, "ITEM", "SUPPORTS", 0, "FEATURE"),
        (1, "ITEM", "SUPPORTS", 1, "FEATURE"),
        (2, "ITEM", "SUPPORTS", 0, "FEATURE"),
        (0, "ITEM", "MADE_BY", 0, "BRAND"),
        (1, "ITEM", "MADE_BY", 0, "BRAND"),
        (2, "ITEM", "MADE_BY", 1, "BRAND"),
        (1, "ITEM", "IN_CAT", 0, "CATEGORY"),
        (2, "ITEM", "IN_CAT", 0, "CATEGORY"),
        (0, "ITEM", "IN_CAT", 1, "CATEGORY"),
        (0, "ITEM", "IN_TIER", 0, "TIER"),
        (1, "ITEM", "IN_TIER", 0, "TIER"),
        (2, "ITEM", "IN_TIER", 1, "TIER"),
    ]
    return pd.DataFrame(rows, columns=["src", "src_type", "etype", "dst", "dst_type"])


class TestLibrary:
    def test_default_has_three_of_each(self):
        metas = DEFAULT_METAGRAPHS
        assert sum(m.kind == COMP for m in metas) == 3
        assert sum(m.kind == SUBS for m in metas) == 3

    def test_multi_leg_metas_exist(self):
        assert any(len(m.legs) == 2 for m in DEFAULT_METAGRAPHS)


class TestPandasCounting:
    def test_shared_feature_counts(self):
        tab = relevance_table_pandas(hand_kg())
        mc1 = tab[(tab["kind"] == COMP) & (tab["meta"] == 0)]
        # (0,1) shares 2 features -> normalized 1.0; (0,2) and (1,2) share 1.
        vals = {(r.x, r.y): r.s for r in mc1.itertuples()}
        assert vals[(0, 1)] == pytest.approx(1.0)
        assert vals[(0, 2)] == pytest.approx(0.5)
        assert vals[(1, 2)] == pytest.approx(0.5)

    def test_same_brand_pairs_only(self):
        tab = relevance_table_pandas(hand_kg())
        mc2 = tab[(tab["kind"] == COMP) & (tab["meta"] == 1)]
        assert set(zip(mc2["x"], mc2["y"])) == {(0, 1)}
        assert mc2["s"].iloc[0] == pytest.approx(1.0)

    def test_conjunction_meta_is_product(self):
        tab = relevance_table_pandas(hand_kg())
        mc3 = tab[(tab["kind"] == COMP) & (tab["meta"] == 2)]
        # Only (0,1): 2 shared features x 1 shared brand = 2 -> s = 1.
        assert set(zip(mc3["x"], mc3["y"])) == {(0, 1)}

    def test_substitutable_category(self):
        tab = relevance_table_pandas(hand_kg())
        ms1 = tab[(tab["kind"] == SUBS) & (tab["meta"] == 0)]
        assert set(zip(ms1["x"], ms1["y"])) == {(1, 2)}

    def test_pairs_are_upper_triangle(self):
        tab = relevance_table_pandas(kg_pdf(15, seed=1))
        assert (tab["x"] < tab["y"]).all()

    def test_s_in_unit_interval(self):
        tab = relevance_table_pandas(kg_pdf(20, seed=2))
        assert (tab["s"] > 0).all() and (tab["s"] <= 1).all()

    def test_duplicate_edge_counts_with_multiplicity(self):
        # Item 0 now supports feature 0 twice: (0,1) has 2 + 1 = 3
        # instances of mC1, (0,2) has 2 and (1,2) still 1.
        kg = hand_kg()
        tab = relevance_table_pandas(pd.concat([kg, kg.iloc[:1]], ignore_index=True))
        mc1 = tab[(tab["kind"] == COMP) & (tab["meta"] == 0)]
        vals = {(r.x, r.y): r.s for r in mc1.itertuples()}
        assert vals == {(0, 1): 1.0, (0, 2): 2 / 3, (1, 2): 1 / 3}

    def test_missing_leg_type_drops_only_its_metas(self):
        kg = kg_pdf(20, seed=2)
        full = relevance_table_pandas(kg)
        tab = relevance_table_pandas(kg[kg["etype"] != "IN_TIER"])
        ms2 = (full["kind"] == SUBS) & (full["meta"] == 1)
        assert ms2.any()
        assert not ((tab["kind"] == SUBS) & (tab["meta"] == 1)).any()
        assert tab.equals(full[~ms2].reset_index(drop=True))

    def test_custom_meta_list(self):
        metas = [MetaGraph("only_brand", COMP, ("MADE_BY",))]
        tab = relevance_table_pandas(hand_kg(), metas)
        assert (tab["kind"] == COMP).all()
        assert set(tab["meta"]) == {0}


class TestRelevanceTensor:
    def test_symmetric_zero_diagonal(self):
        tab = relevance_table_pandas(kg_pdf(12, seed=0))
        s_c, s_s = relevance_tensor(tab, 12, 3, 3)
        for t in (s_c, s_s):
            assert t.shape == (3, 12, 12)
            assert np.allclose(t, t.transpose(0, 2, 1))
            for m in range(3):
                assert np.allclose(np.diagonal(t[m]), 0.0)

    def test_values_roundtrip(self):
        tab = relevance_table_pandas(hand_kg())
        s_c, _ = relevance_tensor(tab, 3, 3, 3)
        assert s_c[0, 0, 1] == pytest.approx(1.0)
        assert s_c[0, 2, 0] == pytest.approx(0.5)
