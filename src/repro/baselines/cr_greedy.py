"""CR-Greedy [5] promotion-timing scheduler for the one-shot baselines.

Multi-round IM greedily assigns each chosen seed pair the round with
the highest marginal influence given the assignments made so far. The
paper uses this to lift BundleGRD/HAG/PS (which pick only pairs) into
the multi-promotion setting.

The marginal evaluations run on a submodel restricted to the union of
the seeds' MIOA influence regions (capped), with the shared dynamic
engine and common random numbers — mirroring how Dysim's own planning
estimates are restricted to target markets. When ``T`` is large the
candidate timings are a stride grid of at most ``MAX_TIMINGS`` values;
this is the documented tractability deviation (the paper's observation
that baselines "suffer from larger T" in run time is preserved — the
grid still grows work linearly in its size).
"""
from __future__ import annotations

from repro.core.clustering import influence_region
from repro.core.tdsi import MarketEvaluator
from repro.dynamics.state import ModelData

MAX_TIMINGS = 8  # candidate rounds per group: a stride grid over [1, T]


def cr_greedy_timings(
    model: ModelData, groups: list[list[tuple[int, int]]], T: int
) -> list[tuple[int, int, int]]:
    """Assign one promotion round to each group of ``(user, item)`` pairs.

    A group's pairs share their round (BundleGRD schedules one user's
    whole bundle together; HAG and PS pass one pair per group). Returns
    ``(u, x, t)`` seeds.
    """
    if not groups:
        return []
    sub = model.subgraph(influence_region(model, [u for g in groups for u, _ in g]))
    ev = MarketEvaluator(sub, T)
    stride = max(1, -(-T // MAX_TIMINGS))  # ceil(T / MAX_TIMINGS)
    grid = list(range(1, T + 1, stride))

    assigned: list[tuple[int, int, int]] = []
    for g in groups:
        gains = ev.marginals(assigned, [[(u, x, t) for u, x in g] for t in grid])
        _, neg_t = max(zip(gains, (-t for t in grid)))
        assigned.extend((u, x, -neg_t) for u, x in g)
    return assigned
