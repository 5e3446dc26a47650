"""Graph primitives used by Dysim's planner.

Each takes a :class:`~repro.dynamics.state.ModelData` and walks its
CSR arrays: the out-edge CSR (``out_start``/``dst``) for influence
paths, the undirected neighbour CSR (``nbr_csr``) for social distance.
All are deterministic.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.dynamics.state import ModelData, csr_ranges


def bfs_hops(model: ModelData, sources) -> np.ndarray:
    """Social distance: multi-source BFS hop counts, friendship undirected.

    Level-synchronous over the neighbour CSR; unreachable users get -1.
    """
    start, nbr = model.nbr_csr
    dist = np.full(model.n_users, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    dist[frontier] = 0
    hops = 0
    while len(frontier):
        hops += 1
        reached = nbr[csr_ranges(start, frontier)[0]]
        frontier = np.unique(reached[dist[reached] < 0])
        dist[frontier] = hops
    return dist


def mioa_reach(model: ModelData, sources) -> np.ndarray:
    """Maximum-influence out-arborescence reachable set (MIOA [22]).

    Dijkstra on edge lengths ``-log(act0)`` from the given sources over
    the out-edge CSR; a user belongs to the influence region if its
    best path probability is ≥ ``params.theta_mioa``. Returns the best
    path probability per user (0 where below the threshold or
    unreachable); sources get 1.
    """
    threshold = model.params.theta_mioa
    lens = -np.log(np.clip(model.act0, 1e-12, 1.0))
    start = model.out_start
    limit = -np.log(max(threshold, 1e-12))
    dist = np.full(model.n_users, np.inf)
    heap: list[tuple[float, int]] = []
    for s in sources:
        if dist[s] > 0:
            dist[s] = 0.0
            heapq.heappush(heap, (0.0, int(s)))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        a, b = start[u], start[u + 1]
        for v, w in zip(model.dst[a:b].tolist(), lens[a:b].tolist()):
            nd = d + w
            if nd < dist[v] and nd <= limit:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    p = np.exp(-dist)
    p[~np.isfinite(dist)] = 0.0
    p[p < threshold] = 0.0
    return p


def diameter(model: ModelData) -> int:
    """Approximate diameter of ``model``'s social graph, taken as undirected.

    Max BFS eccentricity of users 0–3 (exact on those probes), capped
    at ``params.d_cap`` (the paper's PI/RI recursion depth is likewise
    bounded by the market diameter). At least 1. A target market
    measures it on its submodel, whose users 0–3 are its four lowest
    user ids.
    """
    cap = model.params.d_cap
    best = 1
    if model.n_users <= 1:
        return best
    for probe in range(min(4, model.n_users)):
        best = max(best, int(bfs_hops(model, [probe]).max()))
        if best >= cap:
            return cap
    return best
