"""TMI phase 1 — nominee selection by marginal cost-performance ratio.

Sec. IV-B: given the selected set ``N``, the MCP of a nominee ``(u,x)``
is ``(f(N ∪ {(u,x)}) − f(N)) / c_{u,x}``, where ``f`` is the
importance-aware influence with the nominees seeded in the first
promotion and ``P_pref``/``P_act``/``P_ext`` frozen at their initial
values. TMI greedily extracts the highest-MCP nominee that still fits
the remaining budget, sped up with CELF-style lazy re-evaluation (the
paper exploits submodularity "similar to CELF++").

The candidate universe ``U = V × I`` is pruned first: top users by
out-degree crossed with all items, ranked by a cheap one-hop proxy and
capped at ``max_pairs`` (default :data:`MAX_PAIRS`; the paper's server
enumerates more; the pruning knobs are in :class:`repro.params.Params`
and the cap is a documented tractability deviation — DESIGN.md §3).
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.clustering import influence_region
from repro.core.tdsi import MarketEvaluator
from repro.dynamics.state import ModelData


MAX_PAIRS = 100  # candidate-pool size of every table cell


def candidate_users(model: ModelData) -> list[int]:
    """The ``params.cand_users`` users of highest out-degree, highest first.

    The user shortlist of TMI's candidate pool, BundleGRD and PS.
    """
    return [int(u) for u in np.argsort(-model.out_deg)[: model.params.cand_users]]


def candidate_pool(model: ModelData, *, max_pairs: int = MAX_PAIRS) -> list[tuple[int, int]]:
    """Top candidate (user, item) pairs by a one-hop MCP proxy.

    proxy(u, x) = [w_x + Σ_{v ∈ out(u)} act0(u,v) · pref0(v,x) · w_x] / c_{u,x}
    — the seed's own adoption plus the expected one-hop adoptions, per
    unit cost. Only used to *shortlist*; selection itself uses the
    simulated ``f``.
    """
    pairs: list[tuple[float, int, int]] = []
    for u in candidate_users(model):
        sl = model.out_edges(u)
        nbrs = model.dst[sl]
        a = model.act0[sl]
        one_hop = (a[:, None] * model.pref0[nbrs]).sum(axis=0)  # [I]
        score = (model.importance + one_hop * model.importance) / model.cost[u]
        for x in range(model.n_items):
            pairs.append((float(score[x]), u, x))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [(u, x) for _, u, x in pairs[:max_pairs]]


def select_nominees(
    model: ModelData,
    budget: float,
    *,
    max_pairs: int = MAX_PAIRS,
    frozen: bool = False,
    scope: str = "local",
) -> list[tuple[int, int]]:
    """Greedy MCP selection with lazy (CELF) re-evaluation.

    Returns nominees in selection order; their total cost is ≤ budget.
    The objective ``f`` is σ with the nominees seeded at t = 1: Sec.
    IV-B assigns ``P_pref``/``P_act``/``P_ext`` "at the beginning of
    this promotion" — the initial state snapshot — and then measures
    the importance-aware influence of one promotion. ``frozen`` selects
    the dynamics-blind objective (for the baselines).

    A candidate's marginal is ``f(base + cand) − f(base)`` on a
    :class:`MarketEvaluator`. ``scope="local"`` (Dysim's mode) uses one
    evaluator per candidate user, on the submodel induced by the user's
    MIOA influence region (``base`` is the selected nominees inside it)
    — a bounded-cost approximation of the full marginal that keeps TMI
    fast regardless of budget (the paper credits TMI's speed for
    Fig. 6(d)). ``scope="full"`` uses one evaluator on the full model,
    so the marginals are exact (used by the HAG baseline, whose cost
    then grows with the number of selected seeds, as the paper
    observes).
    """
    p = model.params
    pool = candidate_pool(model, max_pairs=max_pairs)
    selected: list[tuple[int, int]] = []
    spent = 0.0

    evaluators: dict[int | None, MarketEvaluator] = {}

    def evaluator(u: int) -> MarketEvaluator:
        key = u if scope == "local" else None
        if key not in evaluators:
            sm = model if key is None else model.subgraph(influence_region(model, [u]))
            evaluators[key] = MarketEvaluator(sm, 1, p.mc_plan, frozen=frozen)
        return evaluators[key]

    def marginal(u: int, x: int) -> float:
        base = [(su, sx, 1) for su, sx in selected]
        s1, s0 = evaluator(u).sigmas([base + [(u, x, 1)], base])
        return s1 - s0

    # First CELF pass: with nothing selected, a candidate's marginal is
    # its own f, scored in one request per evaluator.
    pending: dict[MarketEvaluator, list[tuple[int, int]]] = {}
    for u, x in pool:
        pending.setdefault(evaluator(u), []).append((u, x))
    first: dict[tuple[int, int], float] = {}
    for ev, pairs in pending.items():
        first.update(zip(pairs, ev.sigmas([[(u, x, 1)] for u, x in pairs])))

    # Heap of (-mcp, tie, u, x, evaluated_at_size); lazily re-evaluated.
    heap: list[tuple[float, tuple[int, int], int, int, int]] = []
    for u, x in pool:
        heapq.heappush(heap, (-first[u, x] / model.cost[u, x], (u, x), u, x, 0))

    while heap:
        _, _, u, x, at = heapq.heappop(heap)
        cost = float(model.cost[u, x])
        if spent + cost > budget:
            continue  # too expensive now; a cheaper one may still fit
        if at < len(selected):
            mcp = marginal(u, x) / cost
            heapq.heappush(heap, (-mcp, (u, x), u, x, len(selected)))
            continue
        # Fresh evaluation at the current set size: take it.
        selected.append((u, x))
        spent += cost
    return selected
