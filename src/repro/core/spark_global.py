"""Global reduction as a distributed dataflow (paper §4 on Spark).

Each fixpoint round applies three batch sub-steps, recomputing degrees
between them so every rule evaluates on a consistent snapshot:

1. **Degree-1 batch** (Lemma 2): every edge with a degree-1 endpoint is a
   maximal 2-clique; all such edges are independent rewrites, so the whole
   batch is sound (an isolated edge appears once in the edge table and is
   therefore reported once).
2. **Degree-2 batch** (Lemma 3), restricted to a *distance-2 independent
   set* of the degree-2 candidates (a candidate fires only if it has the
   minimum id among candidates sharing a neighbor): concurrent firings then
   touch disjoint edge sets and cannot invalidate each other's
   common-neighbor tests, making the batch equivalent to some sequential
   application order. The min-id candidate always fires, so rounds make
   progress; random ids give geometric convergence.
3. **Non-triangle edge batch** (Lemma 4): support-0 edges are independent
   maximal 2-cliques; deleting all of them at once is sound because support
   is computed on the snapshot and deletions only lower other edges'
   support (caught next round).

Degree-0 vertices vanish implicitly (edge-table representation; Lemma 1
reports nothing). Cliques are emitted as canonical comma-joined id strings.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..gx.graph import degrees, remove_edges, symmetrize, vertices
from ..gx.triangles import non_triangle_edges

_CLIQUE_SCHEMA = T.StructType([T.StructField("clique", T.StringType())])


def _clique2(a, b):
    return F.concat_ws(",", F.least(a, b).cast("string"), F.greatest(a, b).cast("string"))


def _clique3(a, b, c):
    arr = F.array_sort(F.array(a.cast("long"), b.cast("long"), c.cast("long")))
    return F.array_join(F.transform(arr, lambda x: x.cast("string")), ",")


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


def _degree1_step(edges: DataFrame) -> tuple[DataFrame, DataFrame, int]:
    deg = degrees(edges)
    d1 = deg.where(F.col("degree") == 1).select("v")
    # NB: USING-key semi-joins move the key column first — select explicitly
    # before the positional union or src/dst get silently swapped.
    hit = (
        edges.join(d1.withColumnRenamed("v", "src"), "src", "left_semi")
        .select("src", "dst")
        .union(
            edges.join(d1.withColumnRenamed("v", "dst"), "dst", "left_semi")
            .select("src", "dst")
        )
        .distinct()
    )
    n_hit = hit.count()
    if n_hit == 0:
        return edges, None, 0
    cliques = hit.select(_clique2(F.col("src"), F.col("dst")).alias("clique"))
    return remove_edges(edges, hit), cliques, n_hit


def _degree2_step(
    spark: SparkSession, edges: DataFrame
) -> tuple[DataFrame, DataFrame, int]:
    deg = degrees(edges)
    cand = deg.where(F.col("degree") == 2).select("v")
    if cand.isEmpty():
        return edges, None, 0
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
    n_fire = fire.count()
    if n_fire == 0:
        return edges, None, 0
    # Neighbor pair (u, w) of each firing candidate, u < w.
    pair = (
        inc.join(fire, "v", "left_semi")
        .groupBy("v")
        .agg(F.min("nbr").alias("u"), F.max("nbr").alias("w"))
    )
    # Is (u, w) an edge, and do u, w share a neighbor besides v?
    uw_adj = pair.join(
        edges.select(F.col("src").alias("u"), F.col("dst").alias("w")),
        ["u", "w"],
        "left_semi",
    ).select("v", "u", "w")
    n1 = sym.select(F.col("src").alias("u"), F.col("dst").alias("t"))
    n2 = sym.select(F.col("src").alias("w"), F.col("dst").alias("t"))
    other_common = (
        uw_adj.join(n1, "u")
        .join(n2, ["w", "t"])
        .where(F.col("t") != F.col("v"))
        .select("v")
        .distinct()
    )
    adj = uw_adj
    nonadj = pair.join(uw_adj.select("v"), "v", "left_anti")
    # Reports.
    cl_nonadj = nonadj.select(
        F.explode(
            F.array(_clique2(F.col("v"), F.col("u")), _clique2(F.col("v"), F.col("w")))
        ).alias("clique")
    )
    cl_adj = adj.select(_clique3(F.col("v"), F.col("u"), F.col("w")).alias("clique"))
    cliques = cl_nonadj.union(cl_adj)
    # Edge deletions: both candidate edges always; (u, w) too when adjacent
    # and no other common neighbor (Lemma 3 case 2).
    del_vu = pair.select(
        F.least("v", "u").alias("src"), F.greatest("v", "u").alias("dst")
    )
    del_vw = pair.select(
        F.least("v", "w").alias("src"), F.greatest("v", "w").alias("dst")
    )
    del_uw = (
        adj.join(other_common, "v", "left_anti")
        .select(F.least("u", "w").alias("src"), F.greatest("u", "w").alias("dst"))
    )
    drops = del_vu.union(del_vw).union(del_uw)
    return remove_edges(edges, drops), cliques, n_fire


def _edge_step(edges: DataFrame) -> tuple[DataFrame, DataFrame, int]:
    nte = non_triangle_edges(edges)
    n_nte = nte.count()
    if n_nte == 0:
        return edges, None, 0
    cliques = nte.select(_clique2(F.col("src"), F.col("dst")).alias("clique"))
    return remove_edges(edges, nte), cliques, n_nte


def global_reduce_spark(spark: SparkSession, edges: DataFrame) -> SparkReductionResult:
    """Run global reduction to fixpoint. Returns surviving edges + cliques.

    Rounds repeat until one changes nothing. Every step that fires deletes
    at least one edge, so there are at most ``m_before - m_after + 1`` rounds.
    """
    edges = edges.localCheckpoint(eager=True)
    n0 = vertices(edges).count()
    m0 = edges.count()
    clique_parts: list[DataFrame] = []
    rounds = 0
    changed = 1
    # localCheckpoint after *every* sub-step: the degree-2 step alone
    # self-joins the adjacency several times, so stacking three steps per
    # round on raw lineage explodes the logical plan exponentially.
    while changed:
        changed = 0
        for step in (
            _degree1_step,
            lambda e: _degree2_step(spark, e),
            _edge_step,
        ):
            edges, cl, c = step(edges)
            if c:
                edges = edges.localCheckpoint(eager=True)
            if cl is not None:
                clique_parts.append(cl.localCheckpoint(eager=True))
            changed += c
        rounds += 1
    cliques = spark.createDataFrame([], _CLIQUE_SCHEMA)
    for p in clique_parts:
        cliques = cliques.union(p)
    cliques = cliques.localCheckpoint(eager=True)
    return SparkReductionResult(
        edges=edges,
        cliques=cliques,
        n_before=n0,
        m_before=m0,
        n_after=vertices(edges).count(),
        m_after=edges.count(),
        rounds=rounds,
    )
