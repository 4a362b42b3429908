"""Shared helpers for the test suite (composes with the root conftest)."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.mce.bitgraph import LocalGraph


def random_edges(n: int, p: float, seed: int) -> np.ndarray:
    """Dense-ish G(n, p) edge array for small-graph correctness tests."""
    rng = np.random.default_rng(seed)
    rows = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return np.array(rows, dtype=np.int64) if rows else np.empty((0, 2), dtype=np.int64)


_job_groups = itertools.count()


def spark_jobs(spark, fn, *args):
    """``(fn(*args), number of Spark jobs it ran)``, read from the status
    tracker for a job group set around the call alone."""
    sc = spark.sparkContext
    group = f"job-count-{next(_job_groups)}"
    sc.setJobGroup(group, fn.__name__)
    try:
        out = fn(*args)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def disjoint_union(edge_lists) -> np.ndarray:
    """One edge array holding every graph, with ids offset per graph so the
    whole battery runs through one Spark call."""
    parts, base = [], 0
    for edges in edge_lists:
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        parts.append(e + base)
        base += int(e.max()) + 1 if len(e) else 0
    return np.concatenate(parts)


# Named small graphs with hand-checkable clique structure.
KNOWN_GRAPHS: dict[str, list[tuple[int, int]]] = {
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "path4": [(0, 1), (1, 2), (2, 3)],
    "cycle5": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
    "star5": [(0, i) for i in range(1, 6)],
    "k4": [(i, j) for i in range(4) for j in range(i + 1, 4)],
    "k5": [(i, j) for i in range(5) for j in range(i + 1, 5)],
    "two_triangles_shared_edge": [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)],
    "k4_plus_pendant": [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(3, 4)],
    "bowtie": [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
    "petersen": [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    ],
    "paper_fig2": [  # the toy graph of Figure 2 (u1..u10 -> 1..10)
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 8),
        (2, 3), (2, 4), (2, 5), (2, 6), (2, 8),
        (3, 4), (3, 5), (3, 7), (3, 8),
        (4, 5), (4, 10), (6, 8), (7, 8), (8, 9), (9, 2),
    ],
}

# Expected maximal cliques (size >= 2) for a subset of KNOWN_GRAPHS.
KNOWN_CLIQUES: dict[str, set[tuple[int, ...]]] = {
    "triangle": {(0, 1, 2)},
    "path4": {(0, 1), (1, 2), (2, 3)},
    "cycle5": {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
    "star5": {(0, i) for i in range(1, 6)},
    "k4": {(0, 1, 2, 3)},
    "k5": {(0, 1, 2, 3, 4)},
    "two_triangles_shared_edge": {(0, 1, 2), (1, 2, 3)},
    "k4_plus_pendant": {(0, 1, 2, 3), (3, 4)},
    "bowtie": {(0, 1, 2), (2, 3, 4)},
}


@pytest.fixture(scope="session")
def fuzz_graphs() -> list[LocalGraph]:
    """A battery of random graphs reused across correctness tests."""
    out = []
    seed = 0
    for n in (5, 8, 11, 14):
        for p in (0.15, 0.35, 0.6):
            for k in range(3):
                e = random_edges(n, p, seed := seed + 1)
                if len(e):
                    out.append(LocalGraph.from_edges(e))
    return out
