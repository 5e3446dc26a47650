"""PS [20] — maximum-influence-path seed estimation with discounting.

Teng et al.'s multi-grade product approach estimates each candidate
seed's influence *alone* through maximum influence paths (MIA-style)
and discounts candidates whose influence region is already covered by
selected seeds. As the paper notes, "it only estimates the influence
of a seed alone and cannot utilize the impact of items from other
promotions" — no item relationships, no dynamics.

score(u, x) = w_x · p̄ref(x) · Σ_v p_path(u→v) · (1 − cov_x(v)),

where ``p_path`` is the best path probability over the initial
influence strengths, ``p̄ref(x)`` is the *population-mean* preference
(PS estimates a seed's influence alone and does not target individual
user-item matches), and ``cov_x`` is the probability that ``v`` is
already influenced for ``x`` by previously selected seeds. Greedy by
score per cost within the budget, by :func:`repro.core.nominees.lazy_greedy`
over the candidate users × items: a pick only raises ``cov``, so scores
only fall and a lazy re-score picks what a full re-score would.
CR-Greedy timings.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.cr_greedy import cr_greedy_timings
from repro.core.nominees import candidate_users, lazy_greedy
from repro.diffusion.local import check_plan_inputs
from repro.dynamics.state import ModelData
from repro.graph.local import mioa_reach_many


def ps(model: ModelData, budget: float, T: int) -> list[tuple[int, int, int]]:
    """Path-based greedy pair selection, then CR-Greedy scheduling."""
    check_plan_inputs(budget, T)
    cand_users = candidate_users(model)
    mean_pref = model.pref0.mean(axis=0)  # [I]

    # Maximum-influence-path probabilities from every candidate user
    # (the expensive search the paper attributes PS's run time to), one
    # search for all of them.
    reach = dict(zip(cand_users, mioa_reach_many(model, [[u] for u in cand_users])))
    cov = np.zeros((model.n_users, model.n_items))  # cov_x(v)

    def gains(pairs: list[tuple[int, int]]) -> list[float]:
        # self-adoption + discounted path coverage, population-mean pref:
        # one [I] score row per distinct user
        free = 1.0 - cov
        rows = {
            u: model.importance * (1.0 + mean_pref * (reach[u][:, None] * free).sum(axis=0))
            for u in dict.fromkeys(u for u, _ in pairs)
        }
        return [rows[u][x] for u, x in pairs]

    pairs = [(u, x) for u in cand_users for x in range(model.n_items)]
    selected: list[tuple[int, int]] = []
    for u, x in lazy_greedy(pairs, gains, cost=lambda c: float(model.cost[c]), budget=budget):
        selected.append((u, x))
        cov[:, x] = 1.0 - (1.0 - cov[:, x]) * (1.0 - reach[u])
    return cr_greedy_timings(model, [[pr] for pr in selected], T)
