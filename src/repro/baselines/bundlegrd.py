"""BundleGRD [33] — greedy user selection for a fixed item bundle.

Banerjee et al.'s utility-driven welfare maximization promotes a
*bundle* of desired items; the greedy picks users, each of whom is
seeded with the whole bundle. As the paper notes, this neglects the
substitutable relationship ("regards all items as a bundle") and
"allocates the budget to the same users to promote a bundle of
complementary items" — seeding one user costs the sum of the per-item
costs, so few users are reached at a given budget.

Bundle = the top ``BUNDLE_SIZE`` items by importance (capped so a
bundle is affordable at the experimental budgets; the paper's target
sets are likewise small relative to the catalogue). Timings: CR-Greedy
per user, the user's whole bundle at one round (a bundle is promoted
together).
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.baselines.cr_greedy import cr_greedy_timings
from repro.core.nominees import candidate_users
from repro.core.tdsi import MarketEvaluator
from repro.diffusion.local import check_plan_inputs
from repro.dynamics.state import ModelData

BUNDLE_SIZE = 4  # items per bundle, the most important ones


def bundlegrd(model: ModelData, budget: float, T: int) -> list[tuple[int, int, int]]:
    """Greedy (lazy) user selection for the importance-top bundle."""
    check_plan_inputs(budget, T)
    p = model.params
    bundle = [int(x) for x in np.argsort(-model.importance)[:BUNDLE_SIZE]]
    ev = MarketEvaluator(model, 1, p.mc_plan, frozen=True)

    def user_cost(u: int) -> float:
        return float(sum(model.cost[u, x] for x in bundle))

    def seeds_of(users: list[int]) -> list[tuple[int, int, int]]:
        return [(u, x, 1) for u in users for x in bundle]

    affordable = [u for u in candidate_users(model) if user_cost(u) <= budget]
    heap: list[tuple[float, int, int]] = []
    for u, gain in zip(affordable, ev.sigmas([seeds_of([u]) for u in affordable])):
        heapq.heappush(heap, (-gain / user_cost(u), u, 0))
    selected_users: list[int] = []
    spent = 0.0
    while heap:
        _, u, at = heapq.heappop(heap)
        c = user_cost(u)
        if spent + c > budget:
            continue
        if at < len(selected_users):
            f_new, f_sel = ev.sigmas([seeds_of(selected_users + [u]), seeds_of(selected_users)])
            heapq.heappush(heap, (-(f_new - f_sel) / c, u, len(selected_users)))
            continue
        selected_users.append(u)
        spent += c

    return cr_greedy_timings(model, [[(u, x) for x in bundle] for u in selected_users], T)
