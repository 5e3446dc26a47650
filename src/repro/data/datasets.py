"""Dataset presets: scaled-down stand-ins for the paper's four datasets.

Paper (Sec. VI-A) → here (DESIGN.md §5). Offline, the real Douban /
Gowalla / Yelp / Amazon+Pokec data is unavailable, so each preset is a
synthetic instance preserving the *relative* shape that drives the
paper's findings: Yelp is the smallest network, Douban the largest;
Gowalla has the most items relative to its network (which is why its
run time matches Amazon's in Fig. 6(h)); Gowalla's item importance is
uniform-random (its website is gone), the others' price-like lognormal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.data.kg import base_preferences, item_importance, kg_pdf, seed_costs
from repro.data.social import base_influence, social_edges_pdf
from repro.dynamics.state import ModelData
from repro.kg.metagraphs import (
    COMP,
    DEFAULT_METAGRAPHS,
    SUBS,
    MetaGraph,
    relevance_table_pandas,
    relevance_tensor,
)
from repro.params import DEFAULT


@dataclass
class Spec:
    """Size knobs of one preset."""

    n_users: int
    avg_out_deg: float
    n_items: int
    random_importance: bool = False
    # Weighted-cascade influence scale. Tiny graphs need a higher scale
    # to reach the same per-seed spread (fewer hops available); large
    # presets stay subcritical so the dynamics feedback cannot run away.
    inf_scale: float = 0.45


# Relative shapes mirror Sec. VI-A (users: yelp < gowalla < amazon <
# douban; items/users ratio largest for gowalla), at container scale.
PRESETS: dict[str, Spec] = {
    "small100": Spec(n_users=100, avg_out_deg=6.0, n_items=8, inf_scale=1.0),
    "yelp_lite": Spec(n_users=900, avg_out_deg=8.0, n_items=40),
    "gowalla_lite": Spec(n_users=1400, avg_out_deg=10.0, n_items=80, random_importance=True),
    "amazon_lite": Spec(n_users=1800, avg_out_deg=12.0, n_items=48),
    "douban_lite": Spec(n_users=2600, avg_out_deg=14.0, n_items=64, inf_scale=0.3),
}


@dataclass
class Dataset:
    """One IMDPP instance plus its KG and meta-graph relevance table."""

    name: str
    model: ModelData
    kg_edges: pd.DataFrame
    metas: list[MetaGraph]
    relevance: pd.DataFrame  # (kind, meta, x, y, s) long table

    @property
    def n_users(self) -> int:
        return self.model.n_users

    @property
    def n_items(self) -> int:
        return self.model.n_items


def make_dataset(name: str, *, seed: int = 7) -> Dataset:
    """Build a preset deterministically.

    The meta-graph relevance tensors are counted over the whole
    :data:`DEFAULT_METAGRAPHS` library with the pandas path (equality-
    tested against the Spark one). The model runs with
    :data:`~repro.params.DEFAULT`; other parameters are
    ``dataclasses.replace(ds.model, params=…)``, which rebuilds no
    tensor.
    """
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    spec = PRESETS[name]
    edges = social_edges_pdf(spec.n_users, spec.avg_out_deg, seed=seed)
    importance = item_importance(
        spec.n_items, seed=seed, random_uniform=spec.random_importance
    )
    kg_edges = kg_pdf(spec.n_items, seed=seed, importance=importance)
    metas = DEFAULT_METAGRAPHS
    rel = relevance_table_pandas(kg_edges, metas)
    n_comp, n_subs = (sum(m.kind == k for m in metas) for k in (COMP, SUBS))
    s_c, s_s = relevance_tensor(rel, spec.n_items, n_comp, n_subs)

    base_pref = base_preferences(spec.n_users, spec.n_items, seed=seed)
    base_inf = base_influence(edges, spec.n_users, scale=spec.inf_scale)
    out_deg = np.bincount(edges["src"].to_numpy(), minlength=spec.n_users)
    cost = seed_costs(out_deg, base_pref)

    model = ModelData(
        n_users=spec.n_users,
        n_items=spec.n_items,
        src=edges["src"].to_numpy(),
        dst=edges["dst"].to_numpy(),
        base_inf=base_inf,
        s_c=s_c,
        s_s=s_s,
        base_pref=base_pref,
        importance=importance,
        cost=cost,
        params=DEFAULT,
        seed=seed,
    )
    return Dataset(
        name=name,
        model=model,
        kg_edges=kg_edges,
        metas=metas,
        relevance=rel,
    )
