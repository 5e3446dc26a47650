"""HAG [10] — greedy user-item pair selection with item inference.

Hung et al.'s approach greedily selects the most influential
combination of user-item pairs (it is aware of item associations —
our frozen engine includes ``P_ext`` — but not of the *dynamics* of
perceptions, preferences, or influence strength). Extended per the
paper: per-pair costs against the budget and CR-Greedy timings.

The pair greedy is :func:`repro.core.nominees.frozen_greedy` over TMI's
candidate pool: cost-aware lazy greedy on exact frozen full-model
marginals, each pair seeded at t = 1. The difference between HAG and
Dysim is the objective of the greedy (frozen, full model, against
dynamic, per-user region) and everything *after* selection: target
markets, DRE item ordering, and SI timings.
"""
from __future__ import annotations

from repro.baselines.cr_greedy import cr_greedy_timings
from repro.core.nominees import MAX_PAIRS, candidate_pool, frozen_greedy
from repro.diffusion.local import check_plan_inputs
from repro.dynamics.state import ModelData


def hag(
    model: ModelData, budget: float, T: int, *, max_pairs: int = MAX_PAIRS
) -> list[tuple[int, int, int]]:
    """Select pairs by cost-aware frozen greedy; schedule with CR-Greedy."""
    check_plan_inputs(budget, T)
    pairs = frozen_greedy(
        model, candidate_pool(model, max_pairs=max_pairs),
        lambda cs: [(u, x, 1) for u, x in cs],
        cost=lambda c: float(model.cost[c]), budget=budget,
    )
    return cr_greedy_timings(model, [[pr] for pr in pairs], T)
