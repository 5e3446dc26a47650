"""Knowledge-graph relevance machinery: meta-graphs and relevance tables."""
from repro.kg.metagraphs import (
    MetaGraph,
    DEFAULT_METAGRAPHS,
    relevance_table_spark,
    relevance_table_pandas,
    relevance_tensor,
)
from repro.kg.relevance import personal_relevance, average_relevance

__all__ = [
    "MetaGraph",
    "DEFAULT_METAGRAPHS",
    "relevance_table_spark",
    "relevance_table_pandas",
    "relevance_tensor",
    "personal_relevance",
    "average_relevance",
]
