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
instance counts). Counting is implemented twice with one semantics:

* :func:`relevance_table_spark` — DataFrame joins, for KGs too large
  for one process (tested and benchmarked; the pipeline does not call
  it);
* :func:`relevance_table_pandas` — pandas merges, the path
  :func:`repro.data.datasets.make_dataset` counts with; tests assert
  both agree and the Spark path is additionally DuckDB-oracled.

pyspark is imported inside the Spark functions only, so the local
planning path never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

# KG edge-type names (canonical here; repro.data.kg re-exports them —
# the data package imports from kg, never the reverse, to avoid cycles).
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


def _leg_counts_spark(kg_edges: DataFrame, etype: str) -> DataFrame:
    """Pairs ``(x, y, cnt)`` with ``cnt`` common mid nodes via ``etype``.

    Unordered pairs are emitted once with ``x < y`` (relevance is
    symmetric; the diagonal is excluded).
    """
    from pyspark.sql import functions as F

    e = kg_edges.filter(F.col("etype") == etype).select("src", "dst")
    a = e.alias("a")
    b = e.alias("b")
    return (
        a.join(b, on=(F.col("a.dst") == F.col("b.dst")) & (F.col("a.src") < F.col("b.src")))
        .groupBy(F.col("a.src").alias("x"), F.col("b.src").alias("y"))
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def relevance_table_spark(
    spark: SparkSession, kg_edges: DataFrame, metas: list[MetaGraph] | None = None
) -> DataFrame:
    """Relevance rows ``(kind, meta, x, y, s)`` for every meta-graph.

    Only nonzero, ``x < y`` pairs are materialized; ``meta`` is the
    index of the meta-graph *within its kind* (matching the weight
    vectors' layout).
    """
    from pyspark.sql import functions as F

    metas = metas if metas is not None else DEFAULT_METAGRAPHS
    parts: list[DataFrame] = []
    leg_cache: dict[str, DataFrame] = {}
    for mg in metas:
        idx = [m for m in metas if m.kind == mg.kind].index(mg)
        cur: DataFrame | None = None
        for leg in mg.legs:
            if leg not in leg_cache:
                leg_cache[leg] = _leg_counts_spark(kg_edges, leg).cache()
            lc = leg_cache[leg].withColumnRenamed("cnt", "leg_cnt")
            if cur is None:
                cur = lc.withColumnRenamed("leg_cnt", "cnt")
            else:
                cur = cur.join(lc, on=["x", "y"]).withColumn(
                    "cnt", F.col("cnt") * F.col("leg_cnt")
                ).drop("leg_cnt")
        assert cur is not None
        mx = cur.agg(F.max("cnt")).collect()[0][0]
        if mx is None:  # no instances of this meta-graph at all
            continue
        parts.append(
            cur.select(
                F.lit(mg.kind).alias("kind"),
                F.lit(idx).alias("meta"),
                "x",
                "y",
                (F.col("cnt").cast("double") / F.lit(float(mx))).alias("s"),
            )
        )
    if not parts:
        return spark.createDataFrame(
            [], "kind string, meta bigint, x bigint, y bigint, s double"
        )
    out = parts[0]
    for p in parts[1:]:
        out = out.unionByName(p)
    return out


def _leg_counts_pandas(kg_edges: pd.DataFrame, etype: str) -> pd.DataFrame:
    e = kg_edges.loc[kg_edges["etype"] == etype, ["src", "dst"]]
    m = e.merge(e, on="dst", suffixes=("_a", "_b"))
    m = m[m["src_a"] < m["src_b"]]
    return (
        m.groupby(["src_a", "src_b"], as_index=False)
        .size()
        .rename(columns={"src_a": "x", "src_b": "y", "size": "cnt"})
    )


def relevance_table_pandas(
    kg_edges: pd.DataFrame, metas: list[MetaGraph] | None = None
) -> pd.DataFrame:
    """Pandas mirror of :func:`relevance_table_spark` (same rows)."""
    metas = metas if metas is not None else DEFAULT_METAGRAPHS
    parts = []
    leg_cache: dict[str, pd.DataFrame] = {}
    for mg in metas:
        idx = [m for m in metas if m.kind == mg.kind].index(mg)
        cur: pd.DataFrame | None = None
        for leg in mg.legs:
            if leg not in leg_cache:
                leg_cache[leg] = _leg_counts_pandas(kg_edges, leg)
            lc = leg_cache[leg].rename(columns={"cnt": "leg_cnt"})
            if cur is None:
                cur = lc.rename(columns={"leg_cnt": "cnt"})
            else:
                cur = cur.merge(lc, on=["x", "y"])
                cur["cnt"] = cur["cnt"] * cur["leg_cnt"]
                cur = cur.drop(columns=["leg_cnt"])
        assert cur is not None
        if len(cur) == 0:
            continue
        mx = float(cur["cnt"].max())
        part = cur.assign(kind=mg.kind, meta=idx, s=cur["cnt"].astype(float) / mx)
        parts.append(part[["kind", "meta", "x", "y", "s"]])
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
