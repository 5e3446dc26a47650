"""Synthetic social-network + knowledge-graph data (DESIGN.md §5).

The paper evaluates on Douban/Gowalla/Yelp/Amazon(+Pokec) — not
shippable offline — so these generators produce power-law social
networks and typed KGs whose *relative* shapes match those datasets.
"""
