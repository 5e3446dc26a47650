"""Importance-aware influence spread σ (Definition 1).

σ(S) = Σ_t Σ_x w_x · E[new adoptions of x in promotion t]. Because an
adoption is absorbing (a user never re-adopts), summing the
per-promotion new adoptions equals counting each (user, item) adoption
once at its promotion — which is what ``adopt_t`` records. Both engines
compute σ here: the local engine from its own ``adopt_t``, one count per
block of seed groups (:func:`sigma_groups`), the Spark engine from the
``adopt_t`` it rebuilds from the collected log (:func:`sigma_from_adopt_t`,
the one-group case), so the two give the same bits.
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
    M, U, I = adopt_t.shape
    sigma, sigma_by_t = sigma_groups(
        adopt_t.reshape(M * U, I), np.zeros(M * U, np.int64), 1, M, importance, T
    )
    return float(sigma[0]), sigma_by_t[0]


def sigma_groups(
    adopt_t: np.ndarray,
    group: np.ndarray,
    n_groups: int,
    n_samples: int,
    importance: np.ndarray,
    T: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(σ [G], σ_by_t [G, T+1])`` of ``G`` seed groups from one count.

    ``adopt_t [R, I]`` holds the user rows of every group's
    ``n_samples`` samples; row ``r`` belongs to group ``group[r]``.
    Group ``g``'s values are the bits :func:`sigma_from_adopt_t` gives
    for its rows alone. The adopters of each (group, promotion, item)
    are counted over all of the group's samples in one ``np.bincount``;
    that integer sum is exact, so dividing it by ``n_samples`` gives the
    bits of the mean of the per-sample counts, and each
    importance-weighted sum runs over the items of one contiguous row,
    as a one-group sum does.
    """
    importance = np.asarray(importance)
    I = adopt_t.shape[1]
    r, x = np.nonzero(adopt_t)
    cnt = np.bincount(
        (group[r] * (T + 1) + adopt_t[r, x].astype(np.int64)) * I + x,
        minlength=n_groups * (T + 1) * I,
    ).reshape(n_groups, T + 1, I)
    sigma_by_t = (cnt / n_samples * importance).sum(axis=2)
    sigma = (cnt[:, 1:].sum(axis=1) / n_samples * importance).sum(axis=1)
    return sigma, sigma_by_t
