"""TMI phase 1 — nominee selection by marginal cost-performance ratio.

Sec. IV-B: given the selected set ``N``, the MCP of a nominee ``(u,x)``
is ``(f(N ∪ {(u,x)}) − f(N)) / c_{u,x}``, where ``f`` is the
importance-aware influence with the nominees seeded in the first
promotion and ``P_pref``/``P_act``/``P_ext`` assigned at its beginning:
here ``f`` starts from the initial state and runs that one promotion
under the full dynamics (DESIGN.md §3). TMI greedily extracts the
highest-MCP nominee that still fits the remaining budget, sped up with
CELF-style lazy re-evaluation (the paper exploits submodularity
"similar to CELF++").

:func:`lazy_greedy` is that CELF loop, the one behind every greedy
planner: TMI (:func:`select_nominees`), the dynamics-blind baselines'
frozen full-model greedy (:func:`frozen_greedy`, behind HAG and
BundleGRD), PS's path-score greedy and TDSI's timing extraction.

The candidate universe ``U = V × I`` is pruned first: top users by
out-degree crossed with all items, ranked by a cheap one-hop proxy and
capped at ``max_pairs`` (default :data:`MAX_PAIRS`; the paper's server
enumerates more; the pruning knobs are in :class:`repro.params.Params`
and the cap is a documented tractability deviation — DESIGN.md §3).
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.clustering import influence_regions
from repro.core.tdsi import MarketEvaluator, marginals_many
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


def lazy_greedy(cands, gains, *, cost=None, budget=math.inf):
    """Yield candidates in lazy-greedy (CELF) order.

    ``gains(cs)`` scores the candidates ``cs`` against the picks made so
    far: the caller records each yielded pick before it resumes the
    generator. Candidates costing more than ``budget`` are dropped, the
    rest are scored in one ``gains`` call and kept in a heap of
    ``(−gain / cost(c), c, picks when scored)``; with ``cost`` None every
    candidate costs 1.0. A popped entry that no longer fits the
    remaining budget is dropped; a stale one is re-scored alone and
    pushed back; a fresh one is yielded. Candidates must be unique and
    orderable: ties of the ratio break by the candidate.
    """
    price = cost or (lambda c: 1.0)
    cands = [c for c in cands if price(c) <= budget]
    if not cands:
        return
    heap = [(-g / price(c), c, 0) for c, g in zip(cands, gains(cands))]
    heapq.heapify(heap)
    picked, spent = 0, 0.0
    while heap:
        _, c, at = heapq.heappop(heap)
        if spent + price(c) > budget:
            continue  # too expensive now; a cheaper one may still fit
        if at < picked:
            (g,) = gains([c])
            heapq.heappush(heap, (-g / price(c), c, picked))
            continue
        yield c
        picked += 1
        spent += price(c)


def frozen_greedy(model: ModelData, cands, seeds_of, *, cost, budget: float) -> list:
    """Lazy-greedy picks over frozen full-model marginals, in pick order.

    The greedy of the dynamics-blind baselines (HAG's pairs, BundleGRD's
    users): ``seeds_of(cs)`` is the seed list of the candidates ``cs``,
    all at t = 1, and a candidate's gain is its marginal over the picks
    on one frozen :class:`~repro.core.tdsi.MarketEvaluator` of the whole
    model, so the gains are exact and their cost grows with the number
    of picks (as the paper observes of HAG).
    """
    ev = MarketEvaluator(model, 1, frozen=True)
    picks: list = []

    def gains(cs) -> list[float]:
        return ev.marginals(seeds_of(picks), [seeds_of([c]) for c in cs])

    for c in lazy_greedy(cands, gains, cost=cost, budget=budget):
        picks.append(c)
    return picks


def select_nominees(
    model: ModelData, budget: float, *, max_pairs: int = MAX_PAIRS
) -> list[tuple[int, int]]:
    """TMI's greedy MCP selection by :func:`lazy_greedy`.

    Returns nominees in selection order; their total cost is ≤ budget.
    The objective ``f`` is σ with the nominees seeded at t = 1: Sec.
    IV-B assigns ``P_pref``/``P_act``/``P_ext`` "at the beginning of
    this promotion" — the initial state snapshot — and then measures
    the importance-aware influence of one promotion.

    A candidate's marginal is taken on one evaluator per candidate user,
    on the submodel induced by the user's MIOA influence region (``base``
    is the selected nominees inside it; the regions of the users first
    met in a call are one search) — a bounded-cost approximation of the
    full marginal that keeps TMI fast regardless of budget (the paper
    credits TMI's speed for Fig. 6(d)). The candidates of one ``gains``
    call are one :func:`~repro.core.tdsi.marginals_many` request (one
    engine call).
    """
    selected: list[tuple[int, int]] = []
    local: dict[int, MarketEvaluator] = {}

    def gains(pairs: list[tuple[int, int]]) -> list[float]:
        new = [u for u in dict.fromkeys(u for u, _ in pairs) if u not in local]
        if new:
            for u, region in zip(new, influence_regions(model, [[u] for u in new])):
                local[u] = MarketEvaluator(model.subgraph(region), 1)
        base = [(u, x, 1) for u, x in selected]
        requests = [(local[u], base, [[(u, x, 1)]]) for u, x in pairs]
        return [g for (g,) in marginals_many(requests)]

    pool = candidate_pool(model, max_pairs=max_pairs)
    for pair in lazy_greedy(pool, gains, cost=lambda c: float(model.cost[c]), budget=budget):
        selected.append(pair)
    return selected
