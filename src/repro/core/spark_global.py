"""Global reduction as a distributed dataflow (paper §4 on Spark).

Each fixpoint round applies two batch sub-steps, recomputing degrees and
supports between them so every rule evaluates on a consistent snapshot:

1. **Degree-2 batch** (Lemma 3), restricted to a *distance-2 independent
   set* of the degree-2 candidates (a candidate fires only if it has the
   minimum id among candidates sharing a neighbor): concurrent firings then
   touch disjoint edge sets and cannot invalidate each other's
   common-neighbor tests, making the batch equivalent to some sequential
   application order. The min-id candidate always fires, so rounds make
   progress; random ids give geometric convergence.
2. **Non-triangle edge batch** (Lemma 4): support-0 edges are independent
   maximal 2-cliques; deleting all of them at once is sound because support
   is computed on the snapshot and deletions only lower other edges'
   support (caught next round).

The degree-1 rule (Lemma 2) needs no batch of its own: an edge with a
degree-1 endpoint has support 0, so the Lemma-4 batch reports it as the same
maximal 2-clique and deletes it. The fixpoint is unchanged — residual degree
≥ 3 and every edge in a triangle — and it is the largest subgraph with those
two properties, which no rule ever deletes from, so the residual graph does
not depend on the order the rules fire in. The local Algorithm 5
(``global_reduction.global_reduce_local``) keeps Lemma 2 as printed.

Each sub-step materialises its decision once, as one eagerly checkpointed
table: the firing degree-2 candidates with their neighbor pair and the two
Lemma-3 flags, or the non-triangle edges. Its row count is the firing count,
and the reported cliques and the dropped edges are projections of it, so the
self-join lineage behind a decision is evaluated once. The degree-2 step
first checks that there is a candidate at all, which is never so in the
final round.

Degree-0 vertices vanish implicitly (edge-table representation; Lemma 1
reports nothing). Cliques are emitted as canonical comma-joined id strings.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..gx.graph import degrees, remove_edges, symmetrize
from ..gx.triangles import non_triangle_edges

_CLIQUE_SCHEMA = T.StructType([T.StructField("clique", T.StringType())])


def _clique2(a, b):
    return F.concat_ws(",", F.least(a, b).cast("string"), F.greatest(a, b).cast("string"))


def _clique3(a, b, c):
    arr = F.array_sort(F.array(a.cast("long"), b.cast("long"), c.cast("long")))
    return F.array_join(F.transform(arr, lambda x: x.cast("string")), ",")


def _edge(a, b):
    return F.struct(F.least(a, b).alias("src"), F.greatest(a, b).alias("dst"))


@dataclass
class SparkReductionResult:
    """Outcome of distributed global reduction."""

    edges: DataFrame  # surviving canonical edges
    cliques: DataFrame  # (clique: string) reported by the reduction
    n_before: int
    m_before: int
    n_after: int
    m_after: int
    rounds: int

    @property
    def vertex_ratio(self) -> float:
        return 1.0 - self.n_after / self.n_before if self.n_before else 0.0

    @property
    def edge_ratio(self) -> float:
        return 1.0 - self.m_after / self.m_before if self.m_before else 0.0


def _size(edges: DataFrame) -> tuple[int, int]:
    """``(vertices, edges)`` of a canonical edge table, in one action."""
    n, twice_m = symmetrize(edges).agg(F.countDistinct("src"), F.count("*")).collect()[0]
    return n, twice_m // 2


def _degree2_decision(edges: DataFrame, cand: DataFrame) -> DataFrame:
    """Lemma 3's firing batch: ``(v, u, w, adj, shared)`` per firing
    degree-2 candidate ``v`` (from ``cand``) with neighbors ``u < w``;
    ``adj`` says whether ``(u, w)`` is an edge, ``shared`` whether ``u`` and
    ``w`` have a common neighbor besides ``v``."""
    sym = symmetrize(edges)
    # Incident rows of candidates: exactly two per candidate.
    inc = sym.join(cand.withColumnRenamed("v", "src"), "src", "left_semi").select(
        F.col("src").alias("v"), F.col("dst").alias("nbr")
    )
    # Conflict ids: candidate ids within distance ≤ 2 (shared neighbor).
    one_hop = inc.join(
        cand.withColumnRenamed("v", "nbr"), "nbr", "left_semi"
    ).select("v", F.col("nbr").alias("other"))
    two_hop = (
        inc.join(
            sym.select(F.col("src").alias("nbr"), F.col("dst").alias("other")),
            "nbr",
        )
        .where(F.col("other") != F.col("v"))
        .join(cand.withColumnRenamed("v", "other"), "other", "left_semi")
        .select("v", "other")
    )
    conflict = one_hop.union(two_hop).groupBy("v").agg(F.min("other").alias("min_other"))
    fire = (
        cand.join(conflict, "v", "left")
        .where(F.col("min_other").isNull() | (F.col("v") < F.col("min_other")))
        .select("v")
    )
    pair = (
        inc.join(fire, "v", "left_semi")
        .groupBy("v")
        .agg(F.min("nbr").alias("u"), F.max("nbr").alias("w"))
        .join(
            edges.select(F.col("src").alias("u"), F.col("dst").alias("w"), F.lit(True).alias("adj")),
            ["u", "w"],
            "left",
        )
    )
    n1 = sym.select(F.col("src").alias("u"), F.col("dst").alias("t"))
    n2 = sym.select(F.col("src").alias("w"), F.col("dst").alias("t"))
    shared = (
        pair.where(F.col("adj"))
        .join(n1, "u")
        .join(n2, ["w", "t"])
        .where(F.col("t") != F.col("v"))
        .select("v", F.lit(True).alias("shared"))
        .distinct()
    )
    return pair.join(shared, "v", "left").select(
        "v",
        "u",
        "w",
        F.coalesce("adj", F.lit(False)).alias("adj"),
        F.coalesce("shared", F.lit(False)).alias("shared"),
    )


def _degree2_step(edges: DataFrame) -> tuple[int, DataFrame, DataFrame]:
    """Lemma 3 batch: ``(firings, cliques, dropped edges)``."""
    cand = degrees(edges).where(F.col("degree") == 2).select("v").localCheckpoint(eager=True)
    # The fixpoint has no degree-2 vertex: in the final round, which only
    # confirms that nothing fires, this skips the self-joins.
    if cand.isEmpty():
        return 0, None, None
    fired = _degree2_decision(edges, cand).localCheckpoint(eager=True)
    v, u, w, adj = F.col("v"), F.col("u"), F.col("w"), F.col("adj")
    cliques = fired.select(
        F.explode(
            F.when(adj, F.array(_clique3(v, u, w))).otherwise(
                F.array(_clique2(v, u), _clique2(v, w))
            )
        ).alias("clique")
    )
    # Both candidate edges always; (u, w) too when adjacent and no other
    # common neighbor (Lemma 3 case 2).
    drops = (
        fired.select(
            F.explode(
                F.array(_edge(v, u), _edge(v, w), F.when(adj & ~F.col("shared"), _edge(u, w)))
            ).alias("e")
        )
        .where(F.col("e").isNotNull())
        .select("e.src", "e.dst")
    )
    return fired.count(), cliques, drops


def _edge_step(edges: DataFrame) -> tuple[int, DataFrame, DataFrame]:
    """Lemma 4 batch: ``(non-triangle edges, cliques, dropped edges)``."""
    nte = non_triangle_edges(edges).localCheckpoint(eager=True)
    cliques = nte.select(_clique2(F.col("src"), F.col("dst")).alias("clique"))
    return nte.count(), cliques, nte


def global_reduce_spark(spark: SparkSession, edges: DataFrame) -> SparkReductionResult:
    """Run global reduction to fixpoint. Returns surviving edges + cliques.

    Rounds repeat until one changes nothing. Every step that fires deletes
    at least one edge, so there are at most ``m_before - m_after + 1`` rounds.
    """
    edges = edges.localCheckpoint(eager=True)
    n0, m0 = _size(edges)
    clique_parts: list[DataFrame] = []
    rounds = 0
    changed = True
    while changed:
        changed = False
        for step in (_degree2_step, _edge_step):
            fired, cliques, drops = step(edges)
            if fired:
                clique_parts.append(cliques)
                # Checkpoint so the next step's self-joins start from a
                # materialised table instead of re-running this anti-join.
                edges = remove_edges(edges, drops).localCheckpoint(eager=True)
                changed = True
        rounds += 1
    cliques = reduce(DataFrame.union, clique_parts, spark.createDataFrame([], _CLIQUE_SCHEMA))
    n1, m1 = _size(edges)
    return SparkReductionResult(
        edges=edges,
        cliques=cliques.localCheckpoint(eager=True),
        n_before=n0,
        m_before=m0,
        n_after=n1,
        m_after=m1,
        rounds=rounds,
    )
