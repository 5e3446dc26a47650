"""TMI phase 1 — nominee selection by marginal cost-performance ratio.

Sec. IV-B: given the selected set ``N``, the MCP of a nominee ``(u,x)``
is ``(f(N ∪ {(u,x)}) − f(N)) / c_{u,x}``, where ``f`` is the
importance-aware influence with the nominees seeded in the first
promotion and ``P_pref``/``P_act``/``P_ext`` frozen at their initial
values. TMI greedily extracts the highest-MCP nominee that still fits
the remaining budget, sped up with CELF-style lazy re-evaluation (the
paper exploits submodularity "similar to CELF++").

:func:`lazy_greedy` is that CELF loop, the one behind every greedy
planner: TMI (and HAG through it), BundleGRD's user greedy and TDSI's
timing extraction.

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


def select_nominees(
    model: ModelData,
    budget: float,
    *,
    max_pairs: int = MAX_PAIRS,
    frozen: bool = False,
    scope: str = "local",
) -> list[tuple[int, int]]:
    """Greedy MCP selection by :func:`lazy_greedy`.

    Returns nominees in selection order; their total cost is ≤ budget.
    The objective ``f`` is σ with the nominees seeded at t = 1: Sec.
    IV-B assigns ``P_pref``/``P_act``/``P_ext`` "at the beginning of
    this promotion" — the initial state snapshot — and then measures
    the importance-aware influence of one promotion. ``frozen`` selects
    the dynamics-blind objective (for the baselines).

    A candidate's marginal is its evaluator's marginal over the selected
    nominees, and the candidates of one ``gains`` call are one
    :func:`~repro.core.tdsi.marginals_many` request (one engine call).
    ``scope="local"`` (Dysim's mode) uses one evaluator per candidate
    user, on the submodel induced by the user's MIOA influence region
    (``base`` is the selected nominees inside it; the regions of the
    users first met in a call are one search) — a bounded-cost
    approximation of the full marginal that keeps TMI fast regardless of
    budget (the paper credits TMI's speed for Fig. 6(d)). ``scope="full"``
    uses one evaluator on the full model, so the marginals are exact
    (used by the HAG baseline, whose cost then grows with the number of
    selected seeds, as the paper observes). Any other ``scope`` raises
    ``ValueError``.
    """
    if scope not in ("local", "full"):
        raise ValueError(f"scope must be 'local' or 'full', got {scope!r}")
    p = model.params
    selected: list[tuple[int, int]] = []
    full = MarketEvaluator(model, 1, p.mc_plan, frozen=frozen) if scope == "full" else None
    local: dict[int, MarketEvaluator] = {}

    def evaluators(users: list[int]) -> list[MarketEvaluator]:
        if full is not None:
            return [full] * len(users)
        new = [u for u in dict.fromkeys(users) if u not in local]
        if new:
            for u, region in zip(new, influence_regions(model, [[u] for u in new])):
                local[u] = MarketEvaluator(model.subgraph(region), 1, p.mc_plan, frozen=frozen)
        return [local[u] for u in users]

    def gains(pairs: list[tuple[int, int]]) -> list[float]:
        base = [(u, x, 1) for u, x in selected]
        evs = evaluators([u for u, _ in pairs])
        requests = [(ev, base, [[(u, x, 1)]]) for ev, (u, x) in zip(evs, pairs)]
        return [g for (g,) in marginals_many(requests)]

    pool = candidate_pool(model, max_pairs=max_pairs)
    for pair in lazy_greedy(pool, gains, cost=lambda c: float(model.cost[c]), budget=budget):
        selected.append(pair)
    return selected
