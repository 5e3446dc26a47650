"""Graph primitives used by Dysim's planner.

Each takes a :class:`~repro.dynamics.state.ModelData` and walks its
CSR arrays: the out-edge CSR (``out_start``/``dst``) for influence
paths, the undirected neighbour CSR (``nbr_csr``) for social distance.
All are deterministic.
"""
from __future__ import annotations

import numpy as np

from repro.dynamics.state import ModelData, csr_ranges

_EMPTY = np.empty(0, np.int64)


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


def mioa_reach_many(model: ModelData, source_sets) -> np.ndarray:
    """Maximum-influence out-arborescence reach (MIOA [22]) of each source set.

    Row ``k`` of the ``[S, U]`` result holds, per user, the best path
    probability from the sources ``source_sets[k]`` over the out-edge
    CSR on the initial influence strengths ``act0`` (0 where below
    ``params.theta_mioa`` or unreachable; sources get 1). A user belongs
    to the set's influence region when it is ≥ ``theta_mioa``.

    All sets run in one label-correcting search over ``(set, user)``
    cells on edge lengths ``-log(act0)``: each round relaxes the
    out-edges of every cell whose distance fell in the previous round,
    keeps the paths within ``-log(theta_mioa)``, and takes the minimum
    per cell. The lengths are non-negative and a float add is monotone,
    so the fixpoint is the minimum over paths of the path sums added
    from the source: the distances of a Dijkstra search, bit for bit.
    """
    threshold = model.params.theta_mioa
    U = model.n_users
    lens = -np.log(np.clip(model.act0, 1e-12, 1.0))
    limit = -np.log(max(threshold, 1e-12))
    dist = np.full(len(source_sets) * U, np.inf)
    cells = [k * U + np.asarray(ss, dtype=np.int64) for k, ss in enumerate(source_sets)]
    frontier = np.unique(np.concatenate(cells)) if cells else _EMPTY
    dist[frontier] = 0.0
    while len(frontier):
        row, u = np.divmod(frontier, U)
        e, counts = csr_ranges(model.out_start, u)
        nd = np.repeat(dist[frontier], counts) + lens[e]
        cell = np.repeat(row * U, counts) + model.dst[e]
        better = (nd <= limit) & (nd < dist[cell])
        cell, nd = cell[better], nd[better]
        np.minimum.at(dist, cell, nd)
        frontier = np.unique(cell)
    p = np.exp(-dist.reshape(len(source_sets), U))
    p[p < threshold] = 0.0
    return p


def mioa_reach(model: ModelData, sources) -> np.ndarray:
    """:func:`mioa_reach_many` of one source set: the ``[U]`` reach."""
    return mioa_reach_many(model, [sources])[0]


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
