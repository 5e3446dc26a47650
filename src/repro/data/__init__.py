"""Synthetic social-network + knowledge-graph data (DESIGN.md §5).

The paper evaluates on Douban/Gowalla/Yelp/Amazon(+Pokec) — not
shippable offline — so these generators produce power-law social
networks and typed KGs whose *relative* shapes match those datasets.
"""
from repro.data.social import social_edges_pdf
from repro.data.kg import kg_pdf, item_importance, base_preferences
from repro.data.datasets import Dataset, make_dataset, PRESETS

__all__ = [
    "social_edges_pdf",
    "kg_pdf",
    "item_importance",
    "base_preferences",
    "Dataset",
    "make_dataset",
    "PRESETS",
]
