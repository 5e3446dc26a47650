"""Knowledge-graph relevance machinery: meta-graphs and relevance tables."""
