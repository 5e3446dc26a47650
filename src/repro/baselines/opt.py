"""Bounded brute-force OPT for the Fig. 5 comparisons.

The paper derives OPT "from a brute-force approach" on 100-user samples
of Amazon. Unbounded enumeration over V × I × T subsets is astronomical
even there, so this OPT enumerates every seed group of size ≤
:data:`MAX_SEEDS` over the top-:data:`POOL_SIZE` candidate pairs (the
proxy shortlist all methods draw from), with every timing assignment in
``[1, T]``, keeping groups within the budget — and scores each with the
full dynamic engine. On tiny instances with small budgets (few seeds
affordable) this is an effectively exhaustive upper reference.
"""
from __future__ import annotations

from itertools import combinations, product

from repro.core.nominees import candidate_pool
from repro.diffusion.local import check_plan_inputs, simulate_groups
from repro.dynamics.state import ModelData

POOL_SIZE = 6  # candidate pairs enumerated
MAX_SEEDS = 5  # largest seed group enumerated
N_SAMPLES = 16  # Monte-Carlo samples of stage 2
SCREEN_SAMPLES = 2  # Monte-Carlo samples of stage 1
SCREEN_KEEP = 64  # groups stage 1 passes to stage 2


def opt_bruteforce(model: ModelData, budget: float, T: int) -> list[tuple[int, int, int]]:
    """Best seed group by exhaustive two-stage search.

    Stage 1 scores every feasible group with :data:`SCREEN_SAMPLES`
    Monte Carlo samples (common random numbers make the coarse ranking
    consistent); stage 2 re-evaluates the :data:`SCREEN_KEEP` best with
    :data:`N_SAMPLES`. With these settings the returned group's σ is an
    effectively exhaustive reference on the 100-user instances.
    """
    check_plan_inputs(budget, T)
    pool = candidate_pool(model, max_pairs=POOL_SIZE)
    groups: list[list[tuple[int, int, int]]] = []
    for k in range(1, MAX_SEEDS + 1):
        for combo in combinations(pool, k):
            cost = sum(float(model.cost[u, x]) for u, x in combo)
            if cost > budget:
                continue
            for ts in product(range(1, T + 1), repeat=k):
                groups.append([(u, x, t) for (u, x), t in zip(combo, ts)])
    if not groups:
        return []
    screen = simulate_groups(model, groups, T, SCREEN_SAMPLES)
    coarse = sorted(((r.sigma, i) for i, r in enumerate(screen)), key=lambda t: -t[0])
    kept = [groups[i] for _, i in coarse[:SCREEN_KEEP]]
    best_sigma, best = -1.0, []
    for g, res in zip(kept, simulate_groups(model, kept, T, N_SAMPLES)):
        if res.sigma > best_sigma:
            best_sigma, best = res.sigma, g
    return best
