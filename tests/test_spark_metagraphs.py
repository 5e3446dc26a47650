"""Spark meta-graph counting vs pandas mirror and the DuckDB oracle."""
import duckdb
import pandas as pd
import pytest

from repro.data.kg import kg_pdf
from repro.kg.metagraphs import (
    DEFAULT_METAGRAPHS,
    relevance_table_pandas,
    relevance_table_spark,
)


@pytest.fixture(scope="module")
def kg():
    return kg_pdf(20, seed=4)


# Every default meta-graph counted the join way: one self-join per leg
# type, multi-leg meta-graphs as inner joins of their legs on (x, y),
# and s normalized by the max count of each meta-graph.
ORACLE_SQL = """
WITH leg AS (
  SELECT a.etype, a.src AS x, b.src AS y, count(*) AS c
  FROM kg a JOIN kg b ON a.etype = b.etype AND a.dst = b.dst AND a.src < b.src
  GROUP BY a.etype, a.src, b.src
),
sup AS (SELECT x, y, c FROM leg WHERE etype = 'SUPPORTS'),
brand AS (SELECT x, y, c FROM leg WHERE etype = 'MADE_BY'),
cat AS (SELECT x, y, c FROM leg WHERE etype = 'IN_CAT'),
tier AS (SELECT x, y, c FROM leg WHERE etype = 'IN_TIER'),
cnt AS (
  SELECT 'mC1_shared_feature' AS name, x, y, c FROM sup
  UNION ALL SELECT 'mC2_same_brand', x, y, c FROM brand
  UNION ALL SELECT 'mC3_feature_and_brand', x, y, f.c * b.c
    FROM sup f JOIN brand b USING (x, y)
  UNION ALL SELECT 'mS1_same_category', x, y, c FROM cat
  UNION ALL SELECT 'mS2_category_and_tier', x, y, k.c * t.c
    FROM cat k JOIN tier t USING (x, y)
  UNION ALL SELECT 'mS3_feature_and_category', x, y, f.c * k.c
    FROM sup f JOIN cat k USING (x, y)
)
SELECT name, x, y, CAST(c AS DOUBLE) / max(c) OVER (PARTITION BY name) AS s FROM cnt
"""


def oracle_table(kg: pd.DataFrame, metas) -> pd.DataFrame:
    """The DuckDB table in the layout of ``relevance_table_*``."""
    con = duckdb.connect()
    try:
        con.register("kg", kg)
        rows = con.execute(ORACLE_SQL).fetchdf()
    finally:
        con.close()
    parts = []
    for mg in metas:
        idx = [m for m in metas if m.kind == mg.kind].index(mg)
        part = rows[rows["name"] == mg.name]
        parts.append(part.assign(kind=mg.kind, meta=idx)[["kind", "meta", "x", "y", "s"]])
    return (
        pd.concat(parts)
        .sort_values(["kind", "meta", "x", "y"])
        .reset_index(drop=True)
        .astype({"meta": "int64", "x": "int64", "y": "int64"})
    )


def oracle_cases() -> dict:
    """KG and meta list per case: plain, a duplicated edge, no IN_TIER
    edges, and the library in reverse order."""
    kg = kg_pdf(20, seed=4)
    sup = kg[kg["etype"] == "SUPPORTS"]
    return {
        "plain": (kg, DEFAULT_METAGRAPHS),
        "duplicated_edge": (
            pd.concat([kg, sup.iloc[:1]], ignore_index=True), DEFAULT_METAGRAPHS
        ),
        "no_in_tier": (
            kg[kg["etype"] != "IN_TIER"].reset_index(drop=True), DEFAULT_METAGRAPHS
        ),
        "reversed_library": (kg, DEFAULT_METAGRAPHS[::-1]),
    }


class TestSparkCounting:
    def test_matches_pandas_mirror(self, spark, kg):
        got = (
            relevance_table_spark(spark, spark.createDataFrame(kg))
            .toPandas()
            .sort_values(["kind", "meta", "x", "y"])
            .reset_index(drop=True)
            .astype({"meta": "int64", "x": "int64", "y": "int64"})
        )
        want = relevance_table_pandas(kg).astype(
            {"meta": "int64", "x": "int64", "y": "int64"}
        )
        pd.testing.assert_frame_equal(got, want)

    def test_oracle_shared_feature_counts(self, spark, kg):
        """mC1 instance counting is a plain SQL self-join — oracle it."""
        from repro.oracle import assert_equivalent
        from pyspark.sql import functions as F

        got = (
            relevance_table_spark(spark, spark.createDataFrame(kg),
                                  DEFAULT_METAGRAPHS[:1] + DEFAULT_METAGRAPHS[3:4])
            .filter(F.col("kind") == "C")
            .select("x", "y", "s")
        )
        assert_equivalent(
            got,
            """
            WITH sup AS (SELECT src, dst FROM kg WHERE etype = 'SUPPORTS'),
                 cnt AS (
                   SELECT a.src AS x, b.src AS y, count(*) AS c
                   FROM sup a JOIN sup b ON a.dst = b.dst AND a.src < b.src
                   GROUP BY a.src, b.src
                 )
            SELECT x, y, c * 1.0 / (SELECT max(c) FROM cnt) AS s FROM cnt
            """,
            kg=kg,
        )

    @pytest.mark.parametrize("case", sorted(oracle_cases()))
    def test_oracle_full_table(self, spark, case):
        """Both paths equal the DuckDB table: all six meta-graphs, their
        leg products and their per-meta-graph max normalization."""
        kg, metas = oracle_cases()[case]
        want = oracle_table(kg, metas)
        local = relevance_table_pandas(kg, metas).astype(
            {"meta": "int64", "x": "int64", "y": "int64"}
        )
        pd.testing.assert_frame_equal(local, want, check_exact=True)
        got = (
            relevance_table_spark(spark, spark.createDataFrame(kg), metas)
            .toPandas()
            .sort_values(["kind", "meta", "x", "y"])
            .reset_index(drop=True)
            .astype({"meta": "int64", "x": "int64", "y": "int64"})
        )
        pd.testing.assert_frame_equal(got, want, check_exact=True)

    def test_lazy_and_persists_nothing(self, spark, kg):
        """Building the plan starts no job; the caller's action leaves no
        persisted RDD behind."""
        sc = spark.sparkContext
        kg_df = spark.createDataFrame(kg)
        persisted = sc._jsc.sc().getPersistentRDDs().size()
        group = "metagraphs-lazy"
        sc.setJobGroup(group, "relevance_table_spark laziness")
        try:
            table = relevance_table_spark(spark, kg_df)
            assert sc.statusTracker().getJobIdsForGroup(group) == []
            assert len(table.toPandas()) > 0
            assert sc.statusTracker().getJobIdsForGroup(group) != []
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert sc._jsc.sc().getPersistentRDDs().size() == persisted

    def test_truncated_library(self, spark, kg):
        got = relevance_table_spark(
            spark, spark.createDataFrame(kg), DEFAULT_METAGRAPHS[:2] + DEFAULT_METAGRAPHS[3:4]
        ).toPandas()
        assert set(got[got["kind"] == "C"]["meta"]) <= {0, 1}
        assert set(got[got["kind"] == "S"]["meta"]) <= {0}
