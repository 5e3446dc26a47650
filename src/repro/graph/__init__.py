"""Graph primitives over the social network (local numpy/BFS versions)."""
from repro.graph.local import bfs_hops, undirected_bfs_hops, mioa_reach, diameter_within

__all__ = [
    "bfs_hops",
    "undirected_bfs_hops",
    "mioa_reach",
    "diameter_within",
]
