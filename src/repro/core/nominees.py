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
capped at ``max_pairs`` (the paper's server enumerates more; the
pruning knobs are in :class:`repro.params.Params` and the cap is a
documented tractability deviation — DESIGN.md §3).
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.clustering import influence_region
from repro.diffusion.local import simulate
from repro.dynamics.state import ModelData


def candidate_pool(model: ModelData, *, max_pairs: int = 150) -> list[tuple[int, int]]:
    """Top candidate (user, item) pairs by a one-hop MCP proxy.

    proxy(u, x) = [w_x + Σ_{v ∈ out(u)} act0(u,v) · pref0(v,x) · w_x] / c_{u,x}
    — the seed's own adoption plus the expected one-hop adoptions, per
    unit cost. Only used to *shortlist*; selection itself uses the
    simulated ``f``.
    """
    p = model.params
    cand_users = np.argsort(-model.out_deg)[: p.cand_users]
    pairs: list[tuple[float, int, int]] = []
    for u in cand_users:
        sl = model.out_edges(int(u))
        nbrs = model.dst[sl]
        a = model.act0[sl]
        one_hop = (a[:, None] * model.pref0[nbrs]).sum(axis=0)  # [I]
        score = (model.importance + one_hop * model.importance) / model.cost[u]
        for x in range(model.n_items):
            pairs.append((float(score[x]), int(u), int(x)))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    return [(u, x) for _, u, x in pairs[:max_pairs]]


def _f(model: ModelData, nominees, n_samples: int, *, frozen: bool = False) -> float:
    """The TMI objective ``f``: σ with the nominees seeded at t = 1.

    Sec. IV-B assigns ``P_pref``/``P_act``/``P_ext`` "at the beginning
    of this promotion" — the initial state snapshot — and then measures
    the importance-aware influence σ, i.e., the *dynamic* diffusion of
    one promotion. ``frozen=True`` is the dynamics-blind variant used
    by the HAG/BundleGRD baselines.
    """
    seeds = [(u, x, 1) for u, x in nominees]
    return simulate(model, seeds, T=1, n_samples=n_samples, frozen=frozen).sigma


def select_nominees(
    model: ModelData,
    budget: float,
    *,
    pool: list[tuple[int, int]] | None = None,
    max_pairs: int = 150,
    frozen: bool = False,
    scope: str = "local",
) -> list[tuple[int, int]]:
    """Greedy MCP selection with lazy (CELF) re-evaluation.

    Returns nominees in selection order; their total cost is ≤ budget.
    ``frozen`` selects the dynamics-blind objective (for the baselines).

    ``scope="local"`` (Dysim's mode) evaluates each candidate's
    marginal on the submodel induced by the candidate user's MIOA
    influence region (selected nominees inside the region included) —
    a bounded-cost approximation of the full marginal that keeps TMI
    fast regardless of budget (the paper credits TMI's speed for
    Fig. 6(d)). ``scope="full"`` evaluates exact marginals on the full
    model (used by the HAG baseline, whose cost then grows with the
    number of selected seeds, as the paper observes).
    """
    p = model.params
    if pool is None:
        pool = candidate_pool(model, max_pairs=max_pairs)
    selected: list[tuple[int, int]] = []
    spent = 0.0
    f_sel = 0.0

    submodels: dict[int, ModelData] = {}
    locals_: dict[int, dict[int, int]] = {}

    def marginal(u: int, x: int) -> float:
        if scope == "full":
            return _f(model, selected + [(u, x)], p.mc_plan, frozen=frozen) - f_sel
        if u not in submodels:
            sm = model.subgraph(influence_region(model, [u]))
            submodels[u] = sm
            locals_[u] = {int(g): i for i, g in enumerate(sm.orig_users)}
        sm, loc = submodels[u], locals_[u]
        base = [
            (loc[su], sx, 1) for su, sx in selected if su in loc
        ]
        cand = base + [(loc[u], x, 1)]
        s1 = simulate(sm, cand, 1, p.mc_plan, frozen=frozen).sigma
        s0 = simulate(sm, base, 1, p.mc_plan, frozen=frozen).sigma if base else 0.0
        return s1 - s0

    # Heap of (-mcp, tie, u, x, evaluated_at_size); lazily re-evaluated.
    heap: list[tuple[float, tuple[int, int], int, int, int]] = []
    for u, x in pool:
        heapq.heappush(heap, (-marginal(u, x) / model.cost[u, x], (u, x), u, x, 0))

    while heap:
        neg_mcp, _, u, x, at = heapq.heappop(heap)
        cost = float(model.cost[u, x])
        if spent + cost > budget:
            continue  # too expensive now; a cheaper one may still fit
        if at < len(selected):
            mcp = marginal(u, x) / cost
            heapq.heappush(heap, (-mcp, (u, x), u, x, len(selected)))
            continue
        # Fresh evaluation at the current set size: take it.
        if scope == "full":
            f_sel = f_sel + (-neg_mcp) * cost
        selected.append((u, x))
        spent += cost
    return selected
