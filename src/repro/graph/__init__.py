"""Graph primitives over the social network of a ``ModelData``."""
from repro.graph.local import bfs_hops, diameter, mioa_reach, mioa_reach_many

__all__ = [
    "bfs_hops",
    "mioa_reach",
    "mioa_reach_many",
    "diameter",
]
