"""Distributed k-core peeling: core numbers, degeneracy, degeneracy order.

The sequential algorithm removes *one* minimum-degree vertex per step; the
iterative vertex-program formulation removes **all** vertices of residual
degree ≤ k per round (stages k = 0, 1, 2, …), which preserves validity:

    A vertex removed in a batch at stage k has ≤ k neighbors among vertices
    removed in the same round or later, so ordering vertices by removal
    stamp ``(stage, round, id)`` gives every vertex at most λ later
    neighbors — a valid degeneracy order — and the stage at removal is
    exactly the vertex's core number (the graph surviving stage k is the
    (k+1)-core).

The state is one ``(v, degree)`` table of live vertices and their residual
degrees. A round removes the batch and subtracts, from each surviving
neighbor, the number of its edges into the batch (a join against the
symmetrized adjacency, checkpointed once); the new state is checkpointed,
which truncates the lineage. One aggregate per round counts the live
vertices and reads their minimum degree, so the stage jumps straight to
``k = max(k, min degree)`` instead of spending a round on every empty stage.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .graph import symmetrize

_STAMP_SCHEMA = T.StructType(
    [
        T.StructField("v", T.LongType()),
        T.StructField("core", T.LongType()),
        T.StructField("round", T.LongType()),
    ]
)


def peel(spark: SparkSession, edges: DataFrame) -> tuple[DataFrame, int]:
    """Batch-peel ``edges``; returns ``(stamps, degeneracy)``.

    ``stamps`` has one row per vertex: ``(v, core, round)`` where ``core``
    is the k-core number and ``round`` the global removal round. Isolated
    vertices never appear in the edge table and so are absent (they play no
    role in MCE under the ≥2-clique convention).
    """
    adj = symmetrize(edges).localCheckpoint(eager=True)
    # A vertex whose last neighbor is removed stays here at degree 0, so it
    # still gets a removal stamp.
    deg = (
        adj.groupBy(F.col("src").alias("v"))
        .agg(F.count("*").alias("degree"))
        .localCheckpoint(eager=True)
    )
    stamp_batches: list[DataFrame] = []
    k = 0
    rnd = 0
    n, min_deg = deg.agg(F.count("*"), F.min("degree")).collect()[0]
    while n:
        k = max(k, min_deg)
        low = deg.where(F.col("degree") <= k).select("v")
        stamp_batches.append(
            low.select(
                "v",
                F.lit(k).cast("long").alias("core"),
                F.lit(rnd).cast("long").alias("round"),
            )
        )
        rnd += 1
        lost = (
            adj.join(low.withColumnRenamed("v", "src"), "src", "left_semi")
            .groupBy(F.col("dst").alias("v"))
            .agg(F.count("*").alias("lost"))
        )
        deg = (
            deg.where(F.col("degree") > k)
            .join(lost, "v", "left")
            .select("v", (F.col("degree") - F.coalesce("lost", F.lit(0))).alias("degree"))
            .localCheckpoint(eager=True)
        )
        n, min_deg = deg.agg(F.count("*"), F.min("degree")).collect()[0]
    stamps = reduce(DataFrame.union, stamp_batches, spark.createDataFrame([], _STAMP_SCHEMA))
    return stamps.localCheckpoint(eager=True), k


def degeneracy_order_df(stamps: DataFrame) -> DataFrame:
    """Attach the degeneracy-order rank: ``(v, core, round, rank)``.

    Rank is the row number under the ``(round, v)`` ordering. ``core`` is
    not needed as a key: it never decreases from one round to the next.
    Ties inside a round are ordered by id, which the batch-peeling argument
    allows.
    """
    w = Window.orderBy("round", "v")
    return stamps.withColumn("rank", F.row_number().over(w) - F.lit(1))


def degeneracy_order_spark(
    spark: SparkSession, edges: DataFrame
) -> tuple[DataFrame, int]:
    """Convenience: peel + rank. Returns ``(order_df, degeneracy)``."""
    stamps, lam = peel(spark, edges)
    return degeneracy_order_df(stamps), lam
