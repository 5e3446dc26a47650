"""TMI phases 2–3 — target markets, common-user groups, AE ordering.

Sec. IV-B: nominees are clustered by social closeness and item
relationship (larger average complementary, smaller substitutable
relevance encouraged: link score ``r̄^C − r̄^S ≥ 0``); each cluster's
target market is the MIOA influence region of its nominees; markets
sharing ≥ θ users form a set 𝒢, promoted in ascending Antagonistic
Extent ``AE(τ_i) = Σ_{x∈τ_i, y∈τ_j, j≠i} r̄^S_{x,y}``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dynamics.state import ModelData, init_state
from repro.graph.local import bfs_hops, diameter, mioa_reach_many
from repro.kg.relevance import average_relevance


@dataclass
class TargetMarket:
    """A cluster of nominees plus the users they can influence.

    ``submodel`` is ``model.subgraph(users)``, built once by
    :func:`identify_target_markets` for the diameter and reused for the
    market's planning simulations (``None`` for a market made by hand,
    which only the grouping reads).
    """

    nominees: list[tuple[int, int]]
    users: np.ndarray
    diameter: int
    submodel: ModelData | None = field(default=None, repr=False)
    items: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.items = sorted({x for _, x in self.nominees})


def initial_average_relevance(model: ModelData) -> tuple[np.ndarray, np.ndarray]:
    """Population-average ``(r̄^C, r̄^S)`` at the initial perceptions."""
    st = init_state(model, 1)
    return (
        average_relevance(st.wc, model.s_c),
        average_relevance(st.ws, model.s_s),
    )


def influence_regions(model: ModelData, source_sets) -> list[np.ndarray]:
    """Sorted users of each source set's MIOA influence region, sources included.

    A user belongs to a region when its best path probability from the
    set's sources is ≥ ``theta_mioa`` on the initial influence strengths
    (MIOA, Chen, Wang & Wang, KDD'10); every set is one row of one
    :func:`~repro.graph.local.mioa_reach_many` search. Above
    ``market_cap`` members, only the most reachable are kept (ties by
    user id); planning cost is bounded by the region size, while the
    final σ evaluation still uses the full network. The order of a
    set's sources does not matter.
    """
    cap = model.params.market_cap
    srcs = [np.unique(np.asarray(s, dtype=np.int64)) for s in source_sets]
    regions = []
    for reach, ss in zip(mioa_reach_many(model, srcs), srcs):
        users = np.flatnonzero(reach > 0)
        if len(users) > cap:
            users = np.sort(users[np.argsort(-reach[users], kind="stable")[:cap]])
        regions.append(np.union1d(users, ss))
    return regions


def influence_region(model: ModelData, sources) -> np.ndarray:
    """:func:`influence_regions` of one source set."""
    return influence_regions(model, [sources])[0]


def identify_target_markets(
    model: ModelData,
    nominees: list[tuple[int, int]],
    r_bar_c: np.ndarray,
    r_bar_s: np.ndarray,
) -> list[TargetMarket]:
    """Cluster nominees and grow each cluster's influence region.

    Two nominees are linked when their users are within ``link_hops``
    (undirected social distance) *and* their items are complementary on
    balance (``r̄^C − r̄^S ≥ 0``, or the same item). A market's users are
    the influence region of its cluster's nominee users (one
    :func:`influence_regions` search for all clusters); its diameter is
    measured on the market's submodel.
    """
    if not nominees:
        return []
    p = model.params
    n = len(nominees)
    # Social distance from each nominee user (undirected BFS each).
    hop_rows = {u: bfs_hops(model, [u]) for u in sorted({u for u, _ in nominees})}

    # Capacity-capped leader clustering (stands in for POT/FGCC, which
    # likewise produce several clusters): nominees join the first
    # cluster whose leader is socially close and whose items are
    # complementary on balance; cluster size is capped so the campaign
    # yields multiple markets promoted in sequence — the paper's
    # "intensively promoting a few items within a short period" per
    # market. Processing follows nominee selection order.
    cap = max(2, -(-n // 3))  # ceil(n / 3), at least 2
    clusters: dict[int, list[int]] = {}
    leaders: list[int] = []
    for i in range(n):
        ui, xi = nominees[i]
        placed = False
        for li in leaders:
            if len(clusters[li]) >= cap:
                continue
            ul, xl = nominees[li]
            d = hop_rows[ul][ui]
            if d < 0 or d > p.link_hops:
                continue
            if xi == xl or (r_bar_c[xi, xl] - r_bar_s[xi, xl]) >= 0:
                clusters[li].append(i)
                placed = True
                break
        if not placed:
            leaders.append(i)
            clusters[i] = [i]

    members = [[nominees[i] for i in clusters[root]] for root in sorted(clusters)]
    regions = influence_regions(model, [[u for u, _ in mem] for mem in members])
    markets = []
    for mem, users in zip(members, regions):
        sub = model.subgraph(users)
        markets.append(
            TargetMarket(nominees=mem, users=users, diameter=diameter(sub), submodel=sub)
        )
    return markets


def antagonistic_extent(
    markets: list[TargetMarket], group: list[int], r_bar_s: np.ndarray
) -> dict[int, float]:
    """``AE(τ_i)`` within one 𝒢: substitutable relevance of τ_i's items
    against the items of the *other* markets in the group."""
    ae: dict[int, float] = {}
    for i in group:
        total = 0.0
        for j in group:
            if j == i:
                continue
            for x in markets[i].items:
                for y in markets[j].items:
                    total += float(r_bar_s[x, y])
        ae[i] = total
    return ae


def group_and_order(
    markets: list[TargetMarket], theta: int, r_bar_s: np.ndarray
) -> list[list[int]]:
    """Partition markets into 𝒢s by ≥θ common users; order by AE.

    Returns groups (lists of market indices); within a group, ascending
    AE (the least-antagonistic market is promoted first); groups
    themselves are ordered by total nominee count descending so big
    markets are planned first.
    """
    n = len(markets)
    label = list(range(n))  # the lowest market of each market's group
    for i in range(n):
        for j in range(i + 1, n):
            if len(np.intersect1d(markets[i].users, markets[j].users)) >= theta:
                lo, hi = sorted((label[i], label[j]))
                label = [lo if k == hi else k for k in label]
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(label):
        groups.setdefault(k, []).append(i)
    ordered = []
    for g in groups.values():
        ae = antagonistic_extent(markets, g, r_bar_s)
        ordered.append(sorted(g, key=lambda i: (ae[i], i)))
    ordered.sort(key=lambda g: (-sum(len(markets[i].nominees) for i in g), g[0]))
    return ordered
