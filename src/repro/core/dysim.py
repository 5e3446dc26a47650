"""Dysim — Algorithm 1: TMI → (DRE → TDSI) per target market.

The planner works in three phases over each group 𝒢 of target markets
(ordered by antagonistic extent):

* DRE picks the not-yet-promoted item with the highest dynamic
  reachability, recomputed from the market's *current* average
  perception (i.e., after simulating the seed group chosen so far);
* TDSI assigns each of that item's nominees the promotional timing in
  the Algorithm-1 window that maximizes substantial influence, taking
  the nominees in :func:`repro.core.nominees.lazy_greedy` order of
  their best SI; its first pass scores every nominee over the window
  in one evaluator request.

All planning estimates run on market submodels with the shared local
Monte-Carlo engine (common random numbers); the returned seed group is
evaluated on the full model by the caller.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.clustering import (
    TargetMarket,
    group_and_order,
    identify_target_markets,
    initial_average_relevance,
)
from repro.core.dre import dr_all_items
from repro.core.nominees import MAX_PAIRS, lazy_greedy, select_nominees
from repro.core.tdsi import MarketEvaluator, substantial_influence, timing_window
from repro.diffusion.local import check_plan_inputs
from repro.dynamics.state import ModelData


@dataclass
class DysimResult:
    """Seed group plus the planning artifacts (for tests / case studies)."""

    seeds: list[tuple[int, int, int]]
    nominees: list[tuple[int, int]]
    markets: list[TargetMarket]
    groups: list[list[int]]


def dysim(
    model: ModelData,
    budget: float,
    T: int,
    *,
    max_pairs: int = MAX_PAIRS,
) -> DysimResult:
    """Run Dysim and return the seed group ``{(u, x, t)}``."""
    check_plan_inputs(budget, T)
    p = model.params

    # ---- TMI ---------------------------------------------------------
    nominees = select_nominees(model, budget, max_pairs=max_pairs)
    if not nominees:
        return DysimResult([], [], [], [])
    r_bar_c0, r_bar_s0 = initial_average_relevance(model)
    markets = identify_target_markets(model, nominees, r_bar_c0, r_bar_s0)
    groups = group_and_order(markets, p.theta, r_bar_s0)

    seeds: list[tuple[int, int, int]] = []  # global S
    for group in groups:
        group_seeds: list[tuple[int, int, int]] = []  # S^G
        total_nominees = sum(len(markets[i].nominees) for i in group)
        prev_last_t = 0
        for k in group:
            tau = markets[k]
            ev = MarketEvaluator(tau.submodel, T)
            T_market = max(1, round(len(tau.nominees) * T / max(1, total_nominees)))

            items_left = sorted({x for _, x in tau.nominees})
            market_seeds: list[tuple[int, int, int]] = []

            while items_left:
                # ---- DRE: current average perception in τ ------------
                rc_tau, rs_tau = ev.average_relevance(group_seeds)
                dr = dr_all_items(rc_tau, rs_tau, model.importance, tau.diameter)
                x_p = max(items_left, key=lambda x: (dr[x], -x))
                items_left.remove(x_p)

                # ---- TDSI: timing per nominee of x_p -----------------
                # Lazy (CELF-style) extraction: SI marginals shrink as
                # the seed group grows. A nominee's SI is its best over
                # the timing window; every nominee of x_p is scored in
                # one request.
                best_t: dict[tuple[int, int], int] = {}

                def gains(pairs: list[tuple[int, int]]) -> list[float]:
                    window = timing_window(seeds + group_seeds, T, T_market, prev_last_t)
                    si = substantial_influence(
                        ev, group_seeds, [(u, x, t) for u, x in pairs for t in window], T
                    )
                    out = []
                    for i, pair in enumerate(pairs):
                        row = si[i * len(window):(i + 1) * len(window)]
                        best, neg_t = max(zip(row, (-t for t in window)))
                        best_t[pair] = -neg_t
                        out.append(best)
                    return out

                n_p = [(u, x) for u, x in tau.nominees if x == x_p]
                for u, x in lazy_greedy(n_p, gains):
                    chosen = (u, x, best_t[u, x])
                    group_seeds.append(chosen)
                    market_seeds.append(chosen)
            prev_last_t = max((t for _, _, t in market_seeds), default=prev_last_t)
        seeds.extend(group_seeds)
    return DysimResult(seeds, nominees, markets, groups)
