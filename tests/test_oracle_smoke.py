"""DuckDB-oracle checks over the clique and edge tables (query-shaped
result verification)."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import functions as F

from repro.graphs.catalog import edges_for
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import enumerate_cliques
from repro.oracle import assert_equivalent


def test_clique_size_histogram_vs_oracle(spark):
    """Clique-size distribution of the engine output, aggregated by Spark,
    diffed against DuckDB over the same clique table."""
    e = edges_for("ca-CondMat", "unit")
    res = enumerate_cliques(LocalGraph.from_edges(e), "pivot", True, True, True)
    cl = pd.DataFrame({"clique": [",".join(map(str, c)) for c in sorted(res.cliques)]})
    df = spark.createDataFrame(cl)
    got = (
        df.withColumn("size", F.size(F.split("clique", ",")))
        .groupBy("size")
        .agg(F.count("*").alias("n"))
    )
    assert_equivalent(
        got,
        """
        SELECT LEN(STRING_SPLIT(clique, ',')) AS size, COUNT(*) AS n
        FROM cliques GROUP BY 1
        """,
        cliques=cl,
    )


def test_degree_histogram_vs_oracle(spark):
    e = edges_for("web-Google", "unit")
    pdf = pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]})
    from repro.gx.graph import degrees, edges_df

    got = degrees(edges_df(spark, e)).groupBy("degree").agg(F.count("*").alias("n"))
    assert_equivalent(
        got,
        """
        SELECT degree, COUNT(*) AS n FROM (
            SELECT v, COUNT(*) AS degree FROM (
                SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
            ) GROUP BY v
        ) GROUP BY degree
        """,
        edges=pdf,
    )
