"""Dysim — Dynamic perception for seeding in target markets (Sec. IV)."""
from repro.core.nominees import candidate_pool, select_nominees
from repro.core.clustering import TargetMarket, identify_target_markets, group_and_order
from repro.core.dre import dr_all_items
from repro.core.tdsi import substantial_influence
from repro.core.dysim import dysim

__all__ = [
    "candidate_pool",
    "select_nominees",
    "TargetMarket",
    "identify_target_markets",
    "group_and_order",
    "dr_all_items",
    "substantial_influence",
    "dysim",
]
