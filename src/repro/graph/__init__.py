"""Graph primitives over the social network of a ``ModelData``."""
from repro.graph.local import bfs_hops, diameter, mioa_reach

__all__ = [
    "bfs_hops",
    "mioa_reach",
    "diameter",
]
