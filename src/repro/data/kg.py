"""Typed synthetic knowledge graphs (heterogeneous information networks).

Node types mirror the paper's Fig. 1: ITEM, FEATURE, BRAND, CATEGORY,
plus a price TIER type so the substitutable meta-graph ``mS2`` (same
category *and* same price tier) has something to bind to. Edge types:

* ``SUPPORTS``  — ITEM → FEATURE (multiple per item; zipf-skewed
  feature popularity so some features are shared widely),
* ``MADE_BY``   — ITEM → BRAND (exactly one),
* ``IN_CAT``    — ITEM → CATEGORY (exactly one),
* ``IN_TIER``   — ITEM → TIER (exactly one, derived from importance
  quantile: the paper distributes importance by website price, and
  price tier is the natural substitutability bucket).

All generators are deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.kg.metagraphs import IN_CAT, IN_TIER, MADE_BY, SUPPORTS

ITEM, FEATURE, BRAND, CATEGORY, TIER = "ITEM", "FEATURE", "BRAND", "CATEGORY", "TIER"
N_TIERS = 3
FEATS_PER_ITEM = 3  # SUPPORTS edges per item
FEAT_ZIPF = 1.05  # zipf exponent of feature popularity
PREF_RANK = 4  # latent factors of the base preferences
PREF_LO, PREF_HI = 0.05, 0.5  # base-preference range
COST_MIN, COST_SCALE = 1.0, 9.0  # seed cost = COST_MIN + COST_SCALE · degree share · (1 − pref)


def item_importance(n_items: int, *, seed: int = 0, random_uniform: bool = False) -> np.ndarray:
    """Item importance ``w_x`` in (0, 1], max-normalized.

    Default is lognormal (price-like, as the paper uses website prices
    for Douban/Yelp/Amazon); ``random_uniform=True`` mimics Gowalla,
    whose importance the paper assigns randomly.
    """
    g = np.random.default_rng(seed + 101)
    w = g.uniform(0.05, 1.0, n_items) if random_uniform else g.lognormal(0.0, 0.6, n_items)
    return w / w.max()


def kg_pdf(
    n_items: int, *, seed: int = 0, importance: np.ndarray | None = None
) -> pd.DataFrame:
    """Typed KG edge list ``(src, src_type, etype, dst, dst_type)``.

    ``src`` is always an item id in ``[0, n_items)``; ``dst`` is an id
    within its own type's namespace. Each item supports
    :data:`FEATS_PER_ITEM` of ``max(6, 2·n_items)`` features, drawn
    zipf-skewed (exponent :data:`FEAT_ZIPF`) so popular features create
    dense complementary neighbourhoods, matching real catalogues; it has
    one of ``max(2, n_items // 4)`` brands and one of
    ``max(2, n_items // 6)`` categories.
    """
    n_features = max(6, 2 * n_items)
    n_brands = max(2, n_items // 4)
    n_categories = max(2, n_items // 6)
    g = np.random.default_rng(seed + 17)

    ranks = np.arange(1, n_features + 1, dtype=np.float64)
    p = ranks**-FEAT_ZIPF
    p /= p.sum()

    rows = []
    for x in range(n_items):
        k = min(n_features, FEATS_PER_ITEM)
        feats = g.choice(n_features, size=k, replace=False, p=p)
        rows.extend((x, ITEM, SUPPORTS, int(f), FEATURE) for f in feats)
        rows.append((x, ITEM, MADE_BY, int(g.integers(n_brands)), BRAND))
        rows.append((x, ITEM, IN_CAT, int(g.integers(n_categories)), CATEGORY))
    pdf = pd.DataFrame(rows, columns=["src", "src_type", "etype", "dst", "dst_type"])

    if importance is None:
        importance = item_importance(n_items, seed=seed)
    tiers = np.minimum(N_TIERS - 1, (np.argsort(np.argsort(importance)) * N_TIERS) // n_items)
    tier_rows = pd.DataFrame(
        {
            "src": np.arange(n_items),
            "src_type": ITEM,
            "etype": IN_TIER,
            "dst": tiers.astype("int64"),
            "dst_type": TIER,
        }
    )
    pdf = pd.concat([pdf, tier_rows], ignore_index=True)
    return (
        pdf.sort_values(["etype", "src", "dst"])
        .reset_index(drop=True)
        .astype({"src": "int64", "dst": "int64"})
    )


def base_preferences(n_users: int, n_items: int, *, seed: int = 0) -> np.ndarray:
    """Base (pre-diffusion) user×item preference matrix in ``[PREF_LO, PREF_HI]``.

    Low-rank (:data:`PREF_RANK`) latent-factor structure — users who
    like one item in a taste cluster like its neighbours — squashed into
    a probability range with positive floor (the paper requires
    ``P_minpref > 0``).
    """
    g = np.random.default_rng(seed + 31)
    u = g.normal(size=(n_users, PREF_RANK))
    v = g.normal(size=(PREF_RANK, n_items))
    z = u @ v / np.sqrt(PREF_RANK)
    z = 1.0 / (1.0 + np.exp(-z))  # (0, 1)
    return PREF_LO + (PREF_HI - PREF_LO) * z


def seed_costs(out_deg: np.ndarray, base_pref: np.ndarray) -> np.ndarray:
    """Cost ``c_{u,x}`` of hiring ``u`` to promote ``x`` (Sec. VI-A).

    Proportional to the user's out-degree (influencers charge more) and
    to ``1 − P_pref(u,x)`` (users who like the item less need more
    incentive). Shaped ``[n_users, n_items]``; min cost :data:`COST_MIN`.
    """
    d = out_deg.astype(np.float64) / max(1.0, out_deg.max())
    return COST_MIN + COST_SCALE * d[:, None] * (1.0 - base_pref)
