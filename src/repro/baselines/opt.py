"""Bounded brute-force OPT for the Fig. 5 comparisons.

The paper derives OPT "from a brute-force approach" on 100-user samples
of Amazon. Unbounded enumeration over V × I × T subsets is astronomical
even there, so this OPT enumerates every seed group of size ≤
``max_seeds`` over the top-``pool_size`` candidate pairs (the proxy
shortlist all methods draw from), with every timing assignment in
``[1, T]``, keeping groups within the budget — and scores each with the
full dynamic engine. On tiny instances with small budgets (few seeds
affordable) this is an effectively exhaustive upper reference.
"""
from __future__ import annotations

from itertools import combinations, product

from repro.core.nominees import candidate_pool
from repro.diffusion.local import check_plan_inputs, simulate
from repro.dynamics.state import ModelData


def opt_bruteforce(
    model: ModelData,
    budget: float,
    T: int,
    *,
    pool_size: int = 6,
    max_seeds: int = 5,
    n_samples: int = 16,
    screen_samples: int = 2,
    screen_keep: int = 64,
) -> list[tuple[int, int, int]]:
    """Best seed group by exhaustive two-stage search.

    Stage 1 scores every feasible group with ``screen_samples`` Monte
    Carlo samples (common random numbers make the coarse ranking
    consistent); stage 2 re-evaluates the ``screen_keep`` best with
    ``n_samples``. With these defaults the returned group's σ is an
    effectively exhaustive reference on the 100-user instances.
    """
    check_plan_inputs(budget, T)
    pool = candidate_pool(model, max_pairs=pool_size)
    groups: list[list[tuple[int, int, int]]] = []
    for k in range(1, max_seeds + 1):
        for combo in combinations(pool, k):
            cost = sum(float(model.cost[u, x]) for u, x in combo)
            if cost > budget:
                continue
            for ts in product(range(1, T + 1), repeat=k):
                groups.append([(u, x, t) for (u, x), t in zip(combo, ts)])
    if not groups:
        return []
    coarse = [
        (simulate(model, g, T, screen_samples).sigma, i) for i, g in enumerate(groups)
    ]
    coarse.sort(key=lambda t: -t[0])
    best_sigma, best = -1.0, []
    for _, i in coarse[:screen_keep]:
        sigma = simulate(model, groups[i], T, n_samples).sigma
        if sigma > best_sigma:
            best_sigma, best = sigma, groups[i]
    return best
