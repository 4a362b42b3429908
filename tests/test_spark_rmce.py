"""End-to-end distributed RMCE vs the local engine (and brute force)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.forbidden_reduction import compute_ignore_ids
from repro.core.spark_rmce import _COUNTERS, _ignore_table, _oriented, enumerate_cliques_spark
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df
from repro.gx.kcore import degeneracy_order_spark
from repro.mce.bitgraph import LocalGraph
from repro.mce.engine import enumerate_cliques, solve_root
from repro.mce.metrics import Metrics
from repro.mce.reference import maximal_cliques_bruteforce


@pytest.fixture(autouse=True)
def _few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


def _collect(res) -> set[tuple[int, ...]]:
    return {
        tuple(int(t) for t in r["clique"].split(","))
        for r in res.cliques.collect()
    }


@pytest.mark.parametrize("name", ["ca-CondMat", "inf-road-usa"])
def test_rmce_pipeline_matches_local(spark, name):
    e = edges_for(name, "unit")
    local = enumerate_cliques(LocalGraph.from_edges(e), "pivot", True, True, True)
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", True, True, True)
    got = _collect(res)
    assert got == local.cliques
    assert res.cliques.count() == len(got), "duplicate clique rows"
    assert res.degeneracy == local.degeneracy


def test_baseline_pipeline_matches_bruteforce(spark):
    e = edges_for("ca-CondMat", "unit")
    truth = maximal_cliques_bruteforce(LocalGraph.from_edges(e))
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", False, False, False)
    assert _collect(res) == truth


def test_rcd_recursion_in_pipeline(spark):
    e = edges_for("sc-delaunay_n23", "unit")
    truth = maximal_cliques_bruteforce(LocalGraph.from_edges(e))
    res = enumerate_cliques_spark(spark, edges_df(spark, e), "rcd", True, True, True)
    assert _collect(res) == truth


@pytest.mark.parametrize("on", [True, False], ids=["all_on", "all_off"])
def test_empty_graph(spark, on):
    res = enumerate_cliques_spark(spark, edges_df(spark, np.empty((0, 2))), "pivot", on, on, on)
    assert res.cliques.count() == 0
    assert res.degeneracy == 0


def test_metrics_surface(spark):
    e = edges_for("ca-CondMat", "unit")
    base = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", False, False, False)
    rmce = enumerate_cliques_spark(spark, edges_df(spark, e), "pivot", True, True, True)
    assert rmce.recursive_calls <= base.recursive_calls
    assert rmce.x_after <= rmce.x_before
    assert base.reduction is None and rmce.reduction is not None


def test_ignore_table_matches_local(spark):
    """The join-based closed-form Algorithm 8 must equal the sequential
    sweep — same thresholds AND same arg-min dominators — when evaluated
    on the identical (distributed) degeneracy order."""
    e = edges_for("ca-CondMat", "unit")
    df = edges_df(spark, e).localCheckpoint(eager=True)
    order_df, _ = degeneracy_order_spark(spark, df)
    ranks = order_df.select("v", "rank")
    rank = {r["v"]: r["rank"] for r in ranks.collect()}
    order = [v for v, _ in sorted(rank.items(), key=lambda kv: kv[1])]
    g = LocalGraph.from_edges(e)
    local_id, local_dom = compute_ignore_ids(g, order, rank)
    oriented = _oriented(df, ranks)
    got = {r["v"]: (r["ignore_id"], r["dom"]) for r in _ignore_table(oriented).collect()}
    n = len(order)
    for v in order:
        if v in got:
            assert local_id[v] == got[v][0], f"threshold mismatch at {v}"
            assert local_dom[v] == got[v][1], f"dominator mismatch at {v}"
        else:
            assert local_id[v] == n, f"{v} has a local entry but no Spark row"


@pytest.mark.parametrize("recursion", ["pivot", "rcd"])
def test_tasks_run_the_engine_step(spark, recursion):
    """Every Spark task runs ``solve_root``: replaying it locally for each
    vertex with candidates, on the distributed order and the closed-form
    ignoreId table, gives the same cliques and the same counters."""
    e = edges_for("ca-CondMat", "unit")
    df = edges_df(spark, e).localCheckpoint(eager=True)
    res = enumerate_cliques_spark(spark, df, recursion, False, True, True)
    order_df, _ = degeneracy_order_spark(spark, df)
    rank = {r["v"]: r["rank"] for r in order_df.select("v", "rank").collect()}
    order = sorted(rank, key=rank.__getitem__)
    g = LocalGraph.from_edges(e)
    ignore_id, ignore_dom = compute_ignore_ids(g, order, rank)
    cliques: set[tuple[int, ...]] = set()
    metrics = Metrics()
    for i, v in enumerate(order):
        p_ids = sorted((u for u in g.adj[v] if rank[u] > i), key=rank.__getitem__)
        if p_ids:
            x_ids = [u for u in g.adj[v] if rank[u] < i]
            solve_root(
                g, v, i, p_ids, x_ids, ignore_id, ignore_dom, rank, recursion,
                True, lambda vs: cliques.add(tuple(sorted(vs))), metrics,
            )
    assert _collect(res) == cliques
    assert {k: getattr(res, k) for k in _COUNTERS} == {k: getattr(metrics, k) for k in _COUNTERS}
