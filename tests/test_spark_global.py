"""Distributed global reduction: completeness decomposition + Fig-8 shapes."""
from __future__ import annotations

import pytest

from repro.core.global_reduction import global_reduce_local
from repro.core.spark_global import global_reduce_spark
from repro.graphs.catalog import edges_for
from repro.gx.graph import edges_df
from repro.gx.kcore import degeneracy_order_spark
from repro.mce.bitgraph import LocalGraph
from repro.mce.reference import is_maximal_clique, maximal_cliques_bruteforce
from tests.conftest import KNOWN_GRAPHS, disjoint_union, spark_jobs

GRAPHS = ["ca-CondMat", "inf-road-usa", "sc-delaunay_n23", "wiki-Talk"]
# Pendants, degree-2 chains and triangles: what the degree-1 rule (Lemma 2)
# would act on, which the Spark loop leaves to Lemma 4.
PENDANT_GRAPHS = ["path4", "star5", "k4_plus_pendant", "bowtie", "cycle5", "petersen", "paper_fig2"]


@pytest.fixture(autouse=True)
def _few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", old)


@pytest.fixture(scope="module")
def reduced(spark):
    out = {}
    for name in GRAPHS:
        e = edges_for(name, "unit")
        out[name] = (e, global_reduce_spark(spark, edges_df(spark, e)))
    return out


def _check_decomposition(e, r):
    g = LocalGraph.from_edges(e)
    truth = maximal_cliques_bruteforce(g)
    surviving = LocalGraph.from_edges(
        [(row["src"], row["dst"]) for row in r.edges.collect()]
        or [(0, 0)]  # from_edges drops self-loops -> empty graph
    )
    rest = maximal_cliques_bruteforce(surviving)
    rep = {
        tuple(int(t) for t in row["clique"].split(","))
        for row in r.cliques.collect()
    }
    assert rep | rest == truth
    assert not (rep & rest)
    for c in rep:
        assert is_maximal_clique(g, c)


def _check_fixpoint(r):
    g = LocalGraph.from_edges([(row["src"], row["dst"]) for row in r.edges.collect()])
    assert all(len(nb) >= 3 for nb in g.adj.values())
    assert all(g.adj[u] & g.adj[v] for u, v in g.edges())
    assert r.rounds <= r.m_before - r.m_after + 1


@pytest.mark.parametrize("name", GRAPHS)
def test_decomposition_preserves_cliques(reduced, name):
    _check_decomposition(*reduced[name])


@pytest.mark.parametrize("name", GRAPHS)
def test_fixpoint_reached(reduced, name):
    """The loop stops only at a true fixpoint (no rule applies to the
    residual graph), within the one-edge-per-round bound."""
    _check_fixpoint(reduced[name][1])


@pytest.mark.parametrize("name", GRAPHS)
def test_no_duplicate_reports(reduced, name):
    _, r = reduced[name]
    assert r.cliques.count() == r.cliques.distinct().count()


def test_road_fully_reduced(reduced):
    _, r = reduced["inf-road-usa"]
    assert r.vertex_ratio == 1.0 and r.edge_ratio == 1.0
    assert r.edges.count() == 0


def test_delaunay_barely_reduced(reduced):
    _, r = reduced["sc-delaunay_n23"]
    assert r.vertex_ratio < 0.15 and r.edge_ratio < 0.15


def test_star_heavily_reduced(reduced):
    _, r = reduced["wiki-Talk"]
    assert r.vertex_ratio > 0.4


@pytest.mark.parametrize("name", GRAPHS)
def test_ratios_close_to_local(reduced, name):
    # Batch order differs from the sequential queue, but the fixpoints land
    # in the same place for these families.
    e, r = reduced[name]
    _, _, st = global_reduce_local(LocalGraph.from_edges(e))
    assert abs(r.vertex_ratio - st.vertex_ratio) < 0.05
    assert abs(r.edge_ratio - st.edge_ratio) < 0.05


def test_pendants_reduced_without_degree1_batch(spark):
    """One call on the disjoint union of the pendant/chain/triangle graphs:
    pendant edges are reported once, as 2-cliques, by the Lemma-4 batch."""
    e = disjoint_union([KNOWN_GRAPHS[name] for name in PENDANT_GRAPHS])
    r = global_reduce_spark(spark, edges_df(spark, e))
    _check_decomposition(e, r)
    assert r.cliques.count() == r.cliques.distinct().count()
    _check_fixpoint(r)


def test_job_budget(spark):
    """Spark jobs per call on unit ca-CondMat (8 shuffle partitions): 63
    for the reduction and 150–151 for peeling the whole graph were
    measured, and the bounds add 10%. Evaluating a reduction decision more
    than once, or a peeling round that spends extra actions, exceeds them."""
    df = edges_df(spark, edges_for("ca-CondMat", "unit")).localCheckpoint(eager=True)
    _, reduce_jobs = spark_jobs(spark, global_reduce_spark, spark, df)
    _, order_jobs = spark_jobs(spark, degeneracy_order_spark, spark, df)
    assert reduce_jobs <= 70
    assert order_jobs <= 166
