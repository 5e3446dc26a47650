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
    sigma_by_t = np.zeros(T + 1)
    for t in range(1, T + 1):
        cnt = (adopt_t == t).sum(axis=1)  # [M, I] adopters of each item at t
        sigma_by_t[t] = float((cnt.mean(axis=0) * importance).sum())
    per_item = adopt_t > 0  # [M, U, I]
    sigma = float((per_item.sum(axis=1).mean(axis=0) * importance).sum())
    return sigma, sigma_by_t
