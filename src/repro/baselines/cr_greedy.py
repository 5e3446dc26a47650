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
    model: ModelData,
    pairs: list[tuple[int, int]],
    T: int,
    *,
    groups: list[list[tuple[int, int]]] | None = None,
) -> list[tuple[int, int, int]]:
    """Assign a promotion round to every pair (or group of pairs).

    ``groups`` lets BundleGRD schedule one user's whole bundle at one
    round; default is one group per pair. Returns ``(u, x, t)`` seeds.
    """
    if groups is None:
        groups = [[pr] for pr in pairs]
    if not groups:
        return []
    sub = model.subgraph(influence_region(model, [u for g in groups for u, _ in g]))
    ev = MarketEvaluator(sub, T, model.params.mc_plan)
    stride = max(1, -(-T // MAX_TIMINGS))  # ceil(T / MAX_TIMINGS)
    grid = list(range(1, T + 1, stride))

    assigned: list[tuple[int, int, int]] = []
    for g in groups:
        base, _ = ev.sigma_pi(assigned)
        best = None
        for t in grid:
            cand = assigned + [(u, x, t) for u, x in g]
            sig, _ = ev.sigma_pi(cand)
            score = (sig - base, -t)
            if best is None or score > best[0]:
                best = (score, t)
        t_star = best[1]
        assigned.extend((u, x, t_star) for u, x in g)
    return assigned
