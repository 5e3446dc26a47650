"""Personal and population-average item relevance (Sec. V-A factor 1).

A user's perception of the complementary/substitutable relevance
between items ``x`` and ``y`` is the weighted combination of the
meta-graph relevances with their *personal* meta-graph weightings:

    r^C(u, x, y) = sum_m W_meta(u, m^C) * s(x, y | m^C)

and likewise for ``r^S``. Average relevance (the ``r̄`` of Sec. IV,
used by TMI clustering, AE, and DRE) averages over a user population —
either all users or the members of one target market — and over Monte
Carlo samples when the weight state is sampled.
"""
from __future__ import annotations

import numpy as np


def personal_relevance(w_u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Relevance matrix ``[I, I]`` for one user: ``sum_m w[m] * s[m]``.

    ``w_u`` has shape ``[n_meta]``; ``s`` has shape ``[n_meta, I, I]``.
    """
    return np.einsum("m,mij->ij", w_u, s)


def average_relevance(
    w: np.ndarray, s: np.ndarray, users: np.ndarray | None = None
) -> np.ndarray:
    """Population-average relevance ``r̄ [I, I]``.

    ``w`` has shape ``[M, U, n_meta]`` (samples × users × meta-graphs);
    ``users`` restricts the average to a subset (a target market). The
    average commutes with the linear combination, so we average the
    weight vectors first — much cheaper than averaging ``[I, I]``
    matrices.
    """
    if users is not None:
        w = w[:, np.asarray(users, dtype=np.int64), :]
    if w.shape[0] * w.shape[1] == 0:
        return np.zeros(s.shape[1:])
    return personal_relevance(mean_weights(w), s)


def mean_weights(w: np.ndarray) -> np.ndarray:
    """Weight vector ``[n_meta]`` averaged over samples and users of ``w``."""
    return w.reshape(-1, w.shape[-1]).mean(axis=0)
