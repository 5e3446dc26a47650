"""Meta-graphs over the KG and their instance counting.

A meta-graph here is a schema connecting two ITEM endpoints through one
or more *legs*; each leg is an edge type whose two instances must meet
at a common mid node (ITEM → mid ← ITEM). A meta-graph with several
legs requires *all* legs simultaneously (parallel paths — a genuine
meta-graph, not a meta-path, cf. Fig. 1(b) ``m3``). The instance count
for a pair ``(x, y)`` is the product over legs of the number of common
mid nodes, and the relevance is the max-normalized count:

    s(x, y | m) = count(x, y | m) / max_{x', y'} count(x', y' | m) ∈ [0, 1]

(following SCSE [Huang et al., KDD'16], which correlates relevance with
instance counts). For a single-leg meta-graph the count is PathSim's
commuting matrix ``A·Aᵀ`` of the ITEM × mid incidence matrix ``A``
[Sun et al., VLDB'11]; a multi-leg one is the element-wise product of
its legs' matrices. Counting is implemented twice with one semantics,
each in one pass over the KG's leg edges:

* :func:`relevance_table_spark` — one lazy DataFrame plan (a single
  self-join of the leg edges on ``(etype, dst)``, one count column per
  leg type, a window max per meta-graph) that runs no job and persists
  nothing until the caller's action; for KGs too large for one process
  (tested and benchmarked; the pipeline does not call it);
* :func:`relevance_table_pandas` — dense int64 incidence products per
  leg type with numpy, the path :func:`repro.data.datasets.make_dataset`
  counts with; tests assert both agree and both equal a DuckDB oracle
  of the whole table.

pyspark is imported inside the Spark function only, so the local
planning path never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

# KG edge-type names (canonical here; repro.data.kg's generator imports
# them — the data package imports from kg, never the reverse, to avoid
# cycles).
SUPPORTS, MADE_BY, IN_CAT, IN_TIER = "SUPPORTS", "MADE_BY", "IN_CAT", "IN_TIER"

COMP, SUBS = "C", "S"


@dataclass(frozen=True)
class MetaGraph:
    """A meta-graph schema: two ITEM endpoints joined by ``legs``.

    ``kind`` is ``"C"`` (complementary) or ``"S"`` (substitutable);
    ``legs`` is a tuple of KG edge types, each contributing a required
    ITEM → mid ← ITEM leg.
    """

    name: str
    kind: str
    legs: tuple[str, ...]


# The library: complementary meta-graphs (shared function/maker — things
# used *together*): shared FEATURE; same BRAND; shared FEATURE ∧ same
# BRAND. Substitutable ones (same niche — things used *instead*): same
# CATEGORY; same CATEGORY ∧ same price TIER; shared FEATURE ∧ same
# CATEGORY. T8 (Fig. 7(a)) plans on the first n of each kind.
DEFAULT_METAGRAPHS = [
    MetaGraph("mC1_shared_feature", COMP, (SUPPORTS,)),
    MetaGraph("mC2_same_brand", COMP, (MADE_BY,)),
    MetaGraph("mC3_feature_and_brand", COMP, (SUPPORTS, MADE_BY)),
    MetaGraph("mS1_same_category", SUBS, (IN_CAT,)),
    MetaGraph("mS2_category_and_tier", SUBS, (IN_CAT, IN_TIER)),
    MetaGraph("mS3_feature_and_category", SUBS, (SUPPORTS, IN_CAT)),
]


def _meta_index(metas: list[MetaGraph], mg: MetaGraph) -> int:
    """Index of ``mg`` within its kind (the weight vectors' layout)."""
    return [m for m in metas if m.kind == mg.kind].index(mg)


def relevance_table_spark(
    spark: SparkSession, kg_edges: DataFrame, metas: list[MetaGraph] | None = None
) -> DataFrame:
    """Relevance rows ``(kind, meta, x, y, s)`` for every meta-graph.

    Only nonzero, ``x < y`` pairs are materialized; ``meta`` is the
    index of the meta-graph *within its kind* (matching the weight
    vectors' layout).

    One lazy plan, no action and nothing persisted: the leg edges are
    self-joined once on ``(etype, dst)`` and grouped by ``(x, y)`` with
    one count column per leg type; each meta-graph's count is the
    product of its legs' columns, the meta-graphs are stacked by
    ``explode`` and ``s`` is normalized by a window max per
    ``(kind, meta)``. ``spark`` is unused: the plan lives in
    ``kg_edges``' session.
    """
    from pyspark.sql import Window
    from pyspark.sql import functions as F

    metas = metas if metas is not None else DEFAULT_METAGRAPHS
    legs = sorted({leg for mg in metas for leg in mg.legs})
    e = kg_edges.filter(F.col("etype").isin(legs)).select("src", "etype", "dst")
    a = e.alias("a")
    b = e.alias("b")
    pairs = a.join(
        b,
        on=(F.col("a.etype") == F.col("b.etype"))
        & (F.col("a.dst") == F.col("b.dst"))
        & (F.col("a.src") < F.col("b.src")),
    ).groupBy(F.col("a.src").alias("x"), F.col("b.src").alias("y")).agg(
        *(F.count(F.when(F.col("a.etype") == leg, 1)).alias(leg) for leg in legs)
    )
    stacked = F.array(*(
        F.struct(
            F.lit(mg.kind).alias("kind"),
            F.lit(_meta_index(metas, mg)).alias("meta"),
            reduce(mul, (F.col(leg) for leg in mg.legs)).alias("cnt"),
        )
        for mg in metas
    ))
    rows = (
        pairs.select("x", "y", F.explode(stacked).alias("r"))
        .select("r.kind", "r.meta", "x", "y", "r.cnt")
        .filter(F.col("cnt") > 0)
    )
    top = F.max("cnt").over(Window.partitionBy("kind", "meta"))
    return rows.select(
        "kind", "meta", "x", "y",
        (F.col("cnt").cast("double") / top.cast("double")).alias("s"),
    )


def relevance_table_pandas(
    kg_edges: pd.DataFrame, metas: list[MetaGraph] | None = None
) -> pd.DataFrame:
    """Local mirror of :func:`relevance_table_spark` (same rows), sorted.

    Counts with integer incidence matrices: per leg type an
    ``items × mids`` matrix (a duplicated edge counts with its
    multiplicity), the leg's pair counts ``inc @ inc.T`` in int64 (exact,
    no BLAS) and a multi-leg meta-graph's counts as the element-wise
    product of its legs'. The count matrices are dense ``[I, I]`` per leg
    type, ``I`` the items on leg edges; KGs too large for that are the
    Spark path's.
    """
    metas = metas if metas is not None else DEFAULT_METAGRAPHS
    legs = sorted({leg for mg in metas for leg in mg.legs})
    e = kg_edges[kg_edges["etype"].isin(legs)]
    items, row = np.unique(e["src"].to_numpy(), return_inverse=True)
    etype = e["etype"].to_numpy()
    dst = e["dst"].to_numpy()
    leg_cnt: dict[str, np.ndarray] = {}
    for leg in legs:
        on = etype == leg
        mids, col = np.unique(dst[on], return_inverse=True)
        inc = np.zeros((len(items), len(mids)), dtype=np.int64)
        np.add.at(inc, (row[on], col), 1)
        leg_cnt[leg] = inc @ inc.T
    parts = []
    for mg in metas:
        cnt = reduce(mul, (leg_cnt[leg] for leg in mg.legs))
        x, y = np.nonzero(np.triu(cnt, 1))
        if len(x) == 0:  # no instances of this meta-graph at all
            continue
        c = cnt[x, y]
        parts.append(pd.DataFrame({
            "kind": mg.kind,
            "meta": _meta_index(metas, mg),
            "x": items[x],
            "y": items[y],
            "s": c.astype(float) / float(c.max()),
        }))
    if not parts:
        return pd.DataFrame(columns=["kind", "meta", "x", "y", "s"])
    out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["kind", "meta", "x", "y"]).reset_index(drop=True)


def relevance_tensor(
    table: pd.DataFrame, n_items: int, n_comp: int, n_subs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric tensors ``(s_c [n_comp,I,I], s_s [n_subs,I,I])``.

    Input is the (pandas-collected) relevance table; missing pairs are
    zero and the diagonal is zero (an item is not relevant to itself).
    """
    s_c = np.zeros((n_comp, n_items, n_items))
    s_s = np.zeros((n_subs, n_items, n_items))
    for kind, tens in ((COMP, s_c), (SUBS, s_s)):
        sub = table[table["kind"] == kind]
        m = sub["meta"].to_numpy(dtype=np.int64)
        x = sub["x"].to_numpy(dtype=np.int64)
        y = sub["y"].to_numpy(dtype=np.int64)
        s = sub["s"].to_numpy(dtype=np.float64)
        tens[m, x, y] = s
        tens[m, y, x] = s
    return s_c, s_s
