"""Tests for the graph primitives (repro.graph.local) on toy ModelDatas."""
import heapq
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.state import ModelData
from repro.core.nominees import candidate_users
from repro.data.datasets import PRESETS, make_dataset
from repro.graph.local import bfs_hops, diameter, mioa_reach, mioa_reach_many
from repro.params import DEFAULT


def toy(n, src, dst, prob=None, **params) -> ModelData:
    """A one-item model on the given edges; ``params`` override DEFAULT."""
    src = np.asarray(src, dtype=np.int64)
    s = np.zeros((1, 1, 1))
    return ModelData(
        n_users=n, n_items=1, src=src, dst=np.asarray(dst, dtype=np.int64),
        base_inf=np.full(len(src), 0.5) if prob is None else np.asarray(prob, float),
        s_c=s, s_s=s, base_pref=np.full((n, 1), 0.5), importance=np.ones(1),
        cost=np.ones((n, 1)), params=DEFAULT.with_(**params),
    )


# A small directed graph: 0->1->2->3, 0->4, 5->0, and 6 isolated.
G = toy(7, [0, 1, 2, 0, 5], [1, 2, 3, 4, 0])


class TestBfs:
    def test_single_source_levels(self):
        assert list(bfs_hops(G, [0])) == [0, 1, 2, 3, 1, 1, -1]

    def test_multi_source(self):
        d = bfs_hops(G, [2, 5])
        assert d[2] == 0 and d[5] == 0
        assert d[1] == 1 and d[3] == 1 and d[0] == 1
        assert d[4] == 2

    def test_unreachable_is_minus_one(self):
        d = bfs_hops(G, [3])
        assert d[6] == -1
        assert (d[:6] >= 0).all()

    def test_undirected_reaches_back(self):
        d = bfs_hops(G, [3])
        assert d[0] == 3 and d[5] == 4

    def test_empty_graph(self):
        d = bfs_hops(toy(3, [], []), [1])
        assert list(d) == [-1, 0, -1]


class TestMioa:
    def test_best_path_probability(self):
        # Two routes 0->2: direct 0.3 vs 0.9*0.8 = 0.72 via 1.
        m = toy(3, [0, 0, 1], [2, 1, 2], [0.3, 0.9, 0.8], theta_mioa=0.01)
        p = mioa_reach(m, [0])
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.9)
        assert p[2] == pytest.approx(0.72)

    def test_threshold_prunes(self):
        m = toy(3, [0, 1], [1, 2], [0.1, 0.1], theta_mioa=0.05)
        p = mioa_reach(m, [0])
        assert p[1] == pytest.approx(0.1)
        assert p[2] == 0.0  # 0.01 below threshold

    def test_matches_bruteforce_on_random_graph(self):
        g = np.random.default_rng(0)
        n, e = 8, 20
        src = g.integers(0, n, e)
        dst = g.integers(0, n, e)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        prob = g.uniform(0.2, 0.9, len(src))
        got = mioa_reach(toy(n, src, dst, prob, theta_mioa=1e-6), [0])
        # Floyd-Warshall-style brute force on max path product.
        best = np.zeros((n, n))
        np.fill_diagonal(best, 1.0)
        for a, b, p in zip(src, dst, prob):
            best[a, b] = max(best[a, b], p)
        for _ in range(n):
            for k in range(n):
                best = np.maximum(best, np.outer(best[:, k], best[k, :]))
        assert np.allclose(got, np.where(best[0] >= 1e-6, best[0], 0.0))

    def test_multi_source_takes_best(self):
        m = toy(3, [0, 1], [2, 2], [0.2, 0.7], theta_mioa=0.01)
        assert mioa_reach(m, [0, 1])[2] == pytest.approx(0.7)

    def test_reads_initial_influence_strength(self):
        # base_inf 2.0 is clipped to act_cap: the path 0->1->2 has act_cap².
        m = toy(3, [0, 1], [1, 2], [2.0, 2.0], theta_mioa=0.01, act_cap=0.5)
        assert mioa_reach(m, [0])[2] == pytest.approx(0.25)


class TestDiameter:
    def test_path_graph(self):
        assert diameter(toy(4, [0, 1, 2], [1, 2, 3], d_cap=10)) == 3

    def test_cap_applies(self):
        assert diameter(toy(4, [0, 1, 2], [1, 2, 3], d_cap=2)) == 2

    def test_singleton_market(self):
        assert diameter(G.subgraph([2])) == 1

    def test_only_internal_edges_count(self):
        # Users 0 and 3 are connected only through users outside the market.
        assert diameter(G.subgraph([0, 3])) == 1

    def test_probes_are_the_lowest_user_ids(self):
        # Leaves 1-3 and arms 0-4-5, 0-6-7 around hub 0: the diameter is
        # 4 (5 to 7), but the eccentricity of probes 0-3 is at most 3.
        m = toy(8, [0, 0, 0, 0, 4, 0, 6], [1, 2, 3, 4, 5, 6, 7], d_cap=10)
        assert diameter(m) == 3


# -- property tests against a plain-Python dict-adjacency reference --------

def _ref_adj(m):
    """Undirected friendship lists."""
    adj = {}
    for a, b in zip(m.src.tolist(), m.dst.tolist()):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def _ref_bfs(adj, n, sources, members=None):
    dist = [-1] * n
    dq = deque()
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            dq.append(s)
    while dq:
        u = dq.popleft()
        for v in adj.get(u, []):
            if dist[v] < 0 and (members is None or v in members):
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def _ref_mioa(m, sources):
    """Bellman-Ford to a fixpoint on the same per-edge lengths."""
    theta = m.params.theta_mioa
    lens = (-np.log(np.clip(m.act0, 1e-12, 1.0))).tolist()
    limit = -np.log(max(theta, 1e-12))
    adj = {}
    for a, b, w in zip(m.src.tolist(), m.dst.tolist(), lens):
        adj.setdefault(a, []).append((b, w))
    dist = {s: 0.0 for s in sources}
    changed = True
    while changed:
        changed = False
        for u, d in list(dist.items()):
            for v, w in adj.get(u, []):
                if d + w <= limit and d + w < dist.get(v, np.inf):
                    dist[v] = d + w
                    changed = True
    arr = np.full(m.n_users, np.inf)
    for v, d in dist.items():
        arr[v] = d
    p = np.exp(-arr)
    p[~np.isfinite(arr)] = 0.0
    p[p < theta] = 0.0
    return p


def _dijkstra_mioa(m, sources):
    """Heap Dijkstra on the same per-edge lengths, one source set at a time."""
    theta = m.params.theta_mioa
    lens = -np.log(np.clip(m.act0, 1e-12, 1.0))
    limit = -np.log(max(theta, 1e-12))
    dist = np.full(m.n_users, np.inf)
    heap = []
    for s in sources:
        if dist[s] > 0:
            dist[s] = 0.0
            heapq.heappush(heap, (0.0, int(s)))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        sl = m.out_edges(u)
        for v, w in zip(m.dst[sl].tolist(), lens[sl].tolist()):
            nd = d + w
            if nd < dist[v] and nd <= limit:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    p = np.exp(-dist)
    p[~np.isfinite(dist)] = 0.0
    p[p < theta] = 0.0
    return p


def _ref_diameter(m, members):
    members = sorted(set(members))
    if len(members) <= 1:
        return 1
    adj = _ref_adj(m)
    inside = set(members)
    best = 1
    for probe in members[:4]:
        dist = _ref_bfs(adj, m.n_users, [probe], inside)
        best = max(best, max(dist[v] for v in members))
    return min(best, m.params.d_cap)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    pairs = sorted((a, b) for a, b in pairs if a != b)
    prob = draw(st.lists(st.floats(0.0, 1.0), min_size=len(pairs), max_size=len(pairs)))
    params = dict(
        theta_mioa=draw(st.sampled_from([1e-6, 0.02, 0.2, 0.5])),
        d_cap=draw(st.integers(1, 6)),
    )
    return toy(n, [a for a, _ in pairs], [b for _, b in pairs], prob, **params)


class TestAgainstReference:
    @given(m=graphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bfs_hops(self, m, data):
        sources = data.draw(st.lists(st.integers(0, m.n_users - 1), max_size=3))
        want = _ref_bfs(_ref_adj(m), m.n_users, sources)
        assert bfs_hops(m, sources).tolist() == want

    @given(m=graphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mioa_reach(self, m, data):
        sources = data.draw(st.lists(st.integers(0, m.n_users - 1), min_size=1, max_size=3))
        assert mioa_reach(m, sources).tolist() == _ref_mioa(m, sources).tolist()

    @given(m=graphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mioa_reach_many_equals_dijkstra(self, m, data):
        source_sets = data.draw(st.lists(
            st.lists(st.integers(0, m.n_users - 1), max_size=3), max_size=4
        ))
        got = mioa_reach_many(m, source_sets)
        assert got.shape == (len(source_sets), m.n_users)
        for row, sources in zip(got, source_sets):
            assert row.tolist() == _dijkstra_mioa(m, sources).tolist()

    @given(m=graphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_market_diameter(self, m, data):
        mask = data.draw(st.lists(st.booleans(), min_size=m.n_users, max_size=m.n_users))
        members = [u for u, keep in enumerate(mask) if keep] or [0]
        assert diameter(m.subgraph(members)) == _ref_diameter(m, members)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_mioa_reach_many_equals_dijkstra_on_presets(preset):
    """Bit for bit, per set: each candidate user (TMI's and PS's sets), every
    97th user, and two multi-source sets."""
    m = make_dataset(preset).model
    cands = [[u] for u in candidate_users(m)]
    sets = cands + [[u] for u in range(0, m.n_users, 97)] + [[0, 7, 7, 99], [5, 3]]
    got = mioa_reach_many(m, sets)
    for row, sources in zip(got, sets):
        assert np.array_equal(row, _dijkstra_mioa(m, sources))
    assert (got[: len(cands)] > 0).sum(axis=1).min() > 10  # the regions are not trivial
    assert np.array_equal(mioa_reach(m, sets[-1]), got[-1])
