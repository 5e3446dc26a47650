"""Directed power-law social networks (Chung–Lu style).

Real social graphs (Pokec, Gowalla, Yelp friendships) have heavy-tailed
degree distributions; seed costs in the paper scale with out-degree, so
the tail matters for the experiments. Edges are sampled with
probability proportional to ``w_src * w_dst`` where the weights follow
a Zipf law, which reproduces a power-law in/out degree sequence in
expectation. Deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

ALPHA = 0.9  # zipf exponent of the expected-degree weights


def social_edges_pdf(n_users: int, avg_out_deg: float, *, seed: int = 0) -> pd.DataFrame:
    """Directed edge list ``(src, dst)`` with ~``n_users*avg_out_deg`` edges.

    :data:`ALPHA` is the Zipf exponent of the expected-degree weights; user
    ids are randomly permuted so id order carries no degree signal.
    Self-loops and duplicate edges are dropped (so the realized count is
    slightly below the target). Output is sorted by (src, dst).
    """
    if n_users < 2:
        raise ValueError("need at least 2 users")
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n_users + 1, dtype=np.float64)
    w = ranks ** (-ALPHA)
    w /= w.sum()
    perm = g.permutation(n_users)

    target = int(n_users * avg_out_deg)
    # Oversample to compensate for dropped self-loops / duplicates.
    m = int(target * 1.6) + 16
    src = perm[g.choice(n_users, size=m, p=w)]
    dst = perm[g.choice(n_users, size=m, p=w)]
    keep = src != dst
    pdf = pd.DataFrame({"src": src[keep], "dst": dst[keep]})
    pdf = pdf.drop_duplicates().head(target)
    return (
        pdf.sort_values(["src", "dst"])
        .reset_index(drop=True)
        .astype({"src": "int64", "dst": "int64"})
    )


def base_influence(edges: pd.DataFrame, n_users: int, *, scale: float = 0.45) -> np.ndarray:
    """Weighted-cascade base influence strength per edge: ``scale / indeg(dst)``.

    This is the standard IC weighting ("weighted cascade" of Kempe et
    al.); the dynamic ``P_act`` adds the similarity term on top
    (DESIGN.md §3).
    """
    indeg = np.bincount(edges["dst"].to_numpy(), minlength=n_users)
    return scale / np.maximum(1, indeg[edges["dst"].to_numpy()]).astype(np.float64)
