"""Personal and population-average item relevance (Sec. V-A factor 1).

A user's perception of the complementary/substitutable relevance
between items ``x`` and ``y`` is the weighted combination of the
meta-graph relevances with their *personal* meta-graph weightings:

    r^C(u, x, y) = sum_m W_meta(u, m^C) * s(x, y | m^C)

and likewise for ``r^S``. Average relevance (the ``r̄`` of Sec. IV,
used by TMI clustering, AE, and DRE) averages over a user population —
all users of a model, or of a target market's submodel — and over Monte
Carlo samples when the weight state is sampled.
"""
from __future__ import annotations

import numpy as np


def personal_relevance(w_u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Relevance matrix ``[I, I]`` for one user: ``sum_m w[m] * s[m]``.

    ``w_u`` has shape ``[n_meta]``; ``s`` has shape ``[n_meta, I, I]``.
    """
    return np.einsum("m,mij->ij", w_u, s)


def average_relevance(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Population-average relevance ``r̄ [I, I]``.

    ``w`` has shape ``[M, U, n_meta]`` (samples × users × meta-graphs).
    The average commutes with the linear combination, so we average the
    weight vectors first — much cheaper than averaging ``[I, I]``
    matrices.
    """
    return personal_relevance(mean_weights(w), s)


def mean_weights(w: np.ndarray) -> np.ndarray:
    """Weight vector ``[n_meta]`` averaged over samples and users of ``w``."""
    return w.reshape(-1, w.shape[-1]).mean(axis=0)
