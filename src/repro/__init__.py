"""Reproduction of IMDPP / Dysim (Teng et al., ICDE 2021).

Subpackages: ``data`` (synthetic social network + KG), ``kg``
(meta-graph relevance), ``graph`` (graph primitives over a model's
social graph), ``dynamics`` (the four IMDPP factors and the model
data), ``diffusion`` (the local engine and its sample-sharded Spark
runner), ``core`` (Dysim), ``baselines``, ``experiments``
(table harness). See DESIGN.md at the repo root.
"""

__version__ = "0.1.0"
