"""Distributed RMCE: the full pipeline as a Spark dataflow.

Stages (each optional piece toggles exactly like the local engine, so the
same configuration grid covers BKx, RMCEx and the Table-3 variants):

1. **Global reduction** (``spark_global``): batch Lemmas 1-4 to fixpoint;
   emits pre-reported cliques.
2. **Degeneracy order** (``gx.kcore``): distributed batch peeling.
3. **ignoreId precompute**: Algorithm 8's two dominance rules depend only on
   the static ``N⁺`` sets, so the whole table — threshold *and* arg-min
   dominator — is two joins over the rank-oriented edge table (same
   else-if precedence and tie-breaking as the sequential sweep; a test
   asserts exact equality with ``forbidden_reduction.compute_ignore_ids``).
4. **Subproblem materialization**: for every task vertex ``v`` — candidate
   rows (``N⁺(v)`` with ranks), candidate-candidate adjacency from a
   triangle join, forbidden rows (``N⁻(v)`` with rank/ignoreId/dominator),
   and forbidden-candidate adjacency rows. This ships exactly the
   neighborhood intersections the recursion needs — nothing hub-sized.
5. **Kernel**: ``groupBy(task).applyInPandas`` decodes each task's rows
   into a task-local ``LocalGraph`` and runs the local engine's per-root
   step, ``engine.solve_root`` (chain-sound forbidden-set drop, subproblem
   build and recursion included), then emits clique rows plus the task's
   ``Metrics`` counters as one metrics row.

Output cliques are canonical comma-joined id strings (matching
``spark_global``), unioned with the reduction's pre-reported cliques.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..gx.graph import canonicalize, symmetrize
from ..gx.kcore import degeneracy_order_spark
from ..mce.bitgraph import LocalGraph
from ..mce.engine import solve_root
from ..mce.metrics import Metrics
from .spark_global import SparkReductionResult, global_reduce_spark

# Payload row kinds shipped to each task group.
_CAND, _PP, _X, _XP = 0, 1, 2, 3

# ``Metrics`` counters each task's metrics row carries (clique rows hold 0).
_COUNTERS = ("recursive_calls", "subproblems", "x_before", "x_after", "subproblems_reduced")
_OUT_SCHEMA = T.StructType(
    [T.StructField("clique", T.StringType())]
    + [T.StructField(k, T.LongType()) for k in _COUNTERS]
)


@dataclass
class SparkMCEResult:
    """Distributed enumeration outcome."""

    cliques: DataFrame  # (clique: string), search + reduction reports
    degeneracy: int
    recursive_calls: int
    subproblems: int
    x_before: int
    x_after: int
    subproblems_reduced: int
    reduction: SparkReductionResult | None = None
    extras: dict = field(default_factory=dict)


def _ignore_table(oriented: DataFrame) -> DataFrame:
    """Closed-form Algorithm 8: ``(v, ignore_id, dom)`` for vertices with an
    entry. ``oriented`` is ``(v, u, rv, ru)`` with rank(v) < rank(u)."""
    pairs = oriented.select("v", "u", "rv", "ru")
    t1 = oriented.select(F.col("v").alias("v"), F.col("u").alias("w"))
    t2 = oriented.select(F.col("v").alias("u"), F.col("u").alias("w"))
    cnt = (
        pairs.join(t1, "v")
        .join(t2, ["u", "w"])
        .groupBy("v", "u")
        .agg(F.count("*").alias("cshared"))
    )
    dplus = oriented.groupBy("v").agg(F.count("*").alias("dplus"))
    enriched = (
        pairs.join(cnt, ["v", "u"], "left")
        .fillna({"cshared": 0})
        .join(dplus.withColumnRenamed("dplus", "dv"), "v")
        .join(
            dplus.select(F.col("v").alias("u"), F.col("dplus").alias("du")),
            "u",
            "left",
        )
        .fillna({"du": 0})
    )
    rule_a = F.col("cshared") == F.col("dv") - 1
    rule_b = (~rule_a) & (F.col("cshared") == F.col("du"))
    entries = enriched.where(rule_a).select(
        F.col("v").alias("target"), F.col("ru").alias("thr"), F.col("u").alias("dom")
    ).union(
        enriched.where(rule_b).select(
            F.col("u").alias("target"), F.col("rv").alias("thr"), F.col("v").alias("dom")
        )
    )
    best = entries.groupBy("target").agg(F.min(F.struct("thr", "dom")).alias("best"))
    return best.select(
        F.col("target").alias("v"),
        F.col("best.thr").alias("ignore_id"),
        F.col("best.dom").alias("dom"),
    )


def _oriented(edges: DataFrame, ranks: DataFrame) -> DataFrame:
    """Rank-oriented edge table ``(v, u, rv, ru)`` with rank(v) < rank(u),
    from canonical ``edges`` and ``ranks`` ``(v, rank)``."""
    return (
        symmetrize(edges)
        .join(ranks.withColumnRenamed("v", "src").withColumnRenamed("rank", "r_src"), "src")
        .join(ranks.withColumnRenamed("v", "dst").withColumnRenamed("rank", "r_dst"), "dst")
        .where(F.col("r_src") < F.col("r_dst"))
        .select(
            F.col("src").alias("v"),
            F.col("dst").alias("u"),
            F.col("r_src").cast("long").alias("rv"),
            F.col("r_dst").cast("long").alias("ru"),
        )
    )


def _make_kernel(recursion: str, dynamic: bool, maxcheck: bool):
    """Build the applyInPandas kernel (closure carries the configuration):
    decode one task's payload rows and run the engine's ``solve_root``."""

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        root = int(pdf["task"].iloc[0])
        i = 0
        cands: list[tuple[int, int]] = []  # (rank, vertex)
        xrows: list[tuple[int, int, int, int]] = []  # (x, rank, ignore, dom)
        pairs: list[tuple[int, int]] = []  # P×P and X×P adjacency
        cols = (pdf[c].tolist() for c in ("kind", "a", "b", "c", "d"))
        for kd, a, b, c, d in zip(*cols):
            if kd == _CAND:
                cands.append((b, a))
                i = c
            elif kd == _X:
                xrows.append((a, b, c, d))
            else:
                pairs.append((a, b))
        cands.sort()
        p_ids = [u for _, u in cands]
        x_ids = [x for x, _, _, _ in xrows]
        g = LocalGraph({u: set() for u in p_ids + x_ids})
        for a, b in pairs:
            g.adj[a].add(b)
            g.adj[b].add(a)
        ignore_id = {x: ig for x, _, ig, _ in xrows if ig >= 0} if maxcheck else None
        ignore_dom = {x: dm for x, _, ig, dm in xrows if ig >= 0}
        rank = {x: r for x, r, _, _ in xrows}
        metrics = Metrics()
        cliques: list[str] = []

        def report(vs) -> None:
            cliques.append(",".join(str(t) for t in sorted(vs)))

        solve_root(
            g, root, i, p_ids, x_ids, ignore_id, ignore_dom, rank,
            recursion, dynamic, report, metrics,
        )
        zeros = (0,) * len(_COUNTERS)
        rows = [(cl, *zeros) for cl in cliques]
        rows.append((None, *(getattr(metrics, k) for k in _COUNTERS)))
        return pd.DataFrame(rows, columns=_OUT_SCHEMA.fieldNames())

    return kernel


def enumerate_cliques_spark(
    spark: SparkSession,
    edges: DataFrame,
    recursion: str = "pivot",
    global_reduction: bool = True,
    dynamic: bool = True,
    maxcheck: bool = True,
) -> SparkMCEResult:
    """Distributed maximal clique enumeration (size ≥ 2) over ``edges``."""
    edges = canonicalize(edges).localCheckpoint(eager=True)
    reduction: SparkReductionResult | None = None
    pre: DataFrame | None = None
    if global_reduction:
        reduction = global_reduce_spark(spark, edges)
        edges = reduction.edges
        pre = reduction.cliques

    order_df, lam = degeneracy_order_spark(spark, edges)
    ranks = order_df.select("v", "rank")
    sym = symmetrize(edges)
    oriented = _oriented(edges, ranks).localCheckpoint(eager=True)

    ignore = _ignore_table(oriented) if maxcheck else None

    cand_rows = oriented.select(
        F.col("v").alias("task"),
        F.lit(_CAND).alias("kind"),
        F.col("u").alias("a"),
        F.col("ru").alias("b"),
        F.col("rv").alias("c"),
        F.lit(0).cast("long").alias("d"),
    )
    o1 = oriented.select(F.col("v").alias("task"), F.col("u").alias("p1"), F.col("ru").alias("r1"))
    o2 = oriented.select(F.col("v").alias("task"), F.col("u").alias("p2"), F.col("ru").alias("r2"))
    pp_pairs = o1.join(o2, "task").where(F.col("r1") < F.col("r2"))
    pp_rows = (
        pp_pairs.join(
            edges.select(
                F.least("src", "dst").alias("e1"), F.greatest("src", "dst").alias("e2")
            ),
            (F.least("p1", "p2") == F.col("e1")) & (F.greatest("p1", "p2") == F.col("e2")),
            "left_semi",
        )
        .select(
            "task",
            F.lit(_PP).alias("kind"),
            F.col("p1").alias("a"),
            F.col("p2").alias("b"),
            F.lit(0).cast("long").alias("c"),
            F.lit(0).cast("long").alias("d"),
        )
    )
    xbase = oriented.select(
        F.col("u").alias("task"), F.col("v").alias("x"), F.col("rv").alias("rx")
    )
    if ignore is not None:
        xinfo = xbase.join(ignore.withColumnRenamed("v", "x"), "x", "left").select(
            "task",
            "x",
            "rx",
            F.coalesce("ignore_id", F.lit(-1)).alias("ig"),
            F.coalesce("dom", F.lit(-1)).alias("dm"),
        )
    else:
        xinfo = xbase.select(
            "task", "x", "rx", F.lit(-1).alias("ig"), F.lit(-1).alias("dm")
        )
    x_rows = xinfo.select(
        "task",
        F.lit(_X).alias("kind"),
        F.col("x").alias("a"),
        F.col("rx").alias("b"),
        F.col("ig").cast("long").alias("c"),
        F.col("dm").cast("long").alias("d"),
    )
    xw = xbase.select("task", "x").join(
        oriented.select(F.col("v").alias("task"), F.col("u").alias("w")), "task"
    )
    xp_rows = (
        xw.join(
            sym.select(F.col("src").alias("x"), F.col("dst").alias("w")),
            ["x", "w"],
            "left_semi",
        )
        .select(
            "task",
            F.lit(_XP).alias("kind"),
            F.col("x").alias("a"),
            F.col("w").alias("b"),
            F.lit(0).cast("long").alias("c"),
            F.lit(0).cast("long").alias("d"),
        )
    )
    payload = cand_rows.union(pp_rows).union(x_rows).union(xp_rows)
    # Tasks without candidates cannot report anything (singletons excluded).
    payload = payload.join(
        cand_rows.select("task").distinct(), "task", "left_semi"
    )

    kernel = _make_kernel(recursion, dynamic, maxcheck)
    out = (
        payload.repartition("task")
        .groupBy("task")
        .applyInPandas(kernel, schema=_OUT_SCHEMA)
        .localCheckpoint(eager=True)
    )
    cliques = out.where(F.col("clique").isNotNull()).select("clique")
    if pre is not None:
        cliques = cliques.union(pre)
    agg = (
        out.where(F.col("clique").isNull())
        .agg(*(F.sum(k).alias(k) for k in _COUNTERS))
        .collect()[0]
    )
    return SparkMCEResult(
        cliques=cliques.localCheckpoint(eager=True),
        degeneracy=lam,
        **{k: int(agg[k] or 0) for k in _COUNTERS},
        reduction=reduction,
    )
