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
together). The user greedy is :func:`repro.core.nominees.frozen_greedy`,
which HAG shares: a user's seeds are its whole bundle at t = 1, and its
cost the sum of its bundle's item costs.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.cr_greedy import cr_greedy_timings
from repro.core.nominees import candidate_users, frozen_greedy
from repro.diffusion.local import check_plan_inputs
from repro.dynamics.state import ModelData

BUNDLE_SIZE = 4  # items per bundle, the most important ones


def bundlegrd(model: ModelData, budget: float, T: int) -> list[tuple[int, int, int]]:
    """Lazy-greedy user selection for the importance-top bundle."""
    check_plan_inputs(budget, T)
    bundle = [int(x) for x in np.argsort(-model.importance)[:BUNDLE_SIZE]]

    def seeds_of(users: list[int]) -> list[tuple[int, int, int]]:
        return [(u, x, 1) for u in users for x in bundle]

    def user_cost(u: int) -> float:
        return float(sum(model.cost[u, x] for x in bundle))

    users = frozen_greedy(model, candidate_users(model), seeds_of, cost=user_cost, budget=budget)
    return cr_greedy_timings(model, [[(u, x) for x in bundle] for u in users], T)
