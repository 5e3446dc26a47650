"""Importance-aware influence spread σ (Definition 1).

σ(S) = Σ_t Σ_x w_x · E[new adoptions of x in promotion t]. Because an
adoption is absorbing (a user never re-adopts), summing the
per-promotion new adoptions equals counting each (user, item) adoption
once at its promotion — which is what ``adopt_t`` records. Both engines
compute σ here: the local engine from its own ``adopt_t``, the Spark
engine from the ``adopt_t`` it rebuilds from the collected log, so the
two give the same bits.
"""
from __future__ import annotations

import numpy as np


def sigma_from_adopt_t(
    adopt_t: np.ndarray, importance: np.ndarray, T: int
) -> tuple[float, np.ndarray]:
    """``(σ, σ_by_t)`` from ``adopt_t [M, U, I]`` (promotion index, 0 = never).

    ``σ_by_t [T+1]`` splits σ by promotion (index 0 unused); σ is the
    mean over samples of the importance-weighted adoption count.
    """
    importance = np.asarray(importance)
    M, _, I = adopt_t.shape
    # Adopters per (promotion, sample, item), from one pass over the
    # adoptions: the same int64 counts as ``(adopt_t == t).sum(axis=1)``.
    m, u, x = np.nonzero(adopt_t)
    cnt = np.bincount(
        (adopt_t[m, u, x].astype(np.int64) * M + m) * I + x, minlength=(T + 1) * M * I
    ).reshape(T + 1, M, I)
    sigma_by_t = np.zeros(T + 1)
    for t in range(1, T + 1):
        sigma_by_t[t] = float((cnt[t].mean(axis=0) * importance).sum())
    sigma = float((cnt[1:].sum(axis=0).mean(axis=0) * importance).sum())
    return sigma, sigma_by_t
