"""Spark meta-graph counting vs pandas mirror and the DuckDB oracle."""
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

    def test_truncated_library(self, spark, kg):
        got = relevance_table_spark(
            spark, spark.createDataFrame(kg), DEFAULT_METAGRAPHS[:2] + DEFAULT_METAGRAPHS[3:4]
        ).toPandas()
        assert set(got[got["kind"] == "C"]["meta"]) <= {0, 1}
        assert set(got[got["kind"] == "S"]["meta"]) <= {0}
