"""The unified MCE engine (local form).

One entry point covers every algorithm in the paper's evaluation:

========================  ==========================================
Configuration             Meaning
========================  ==========================================
reductions all off        BKdegen / BKrcd / BKfacen / BKrevised
                          (depending on ``recursion``)
reductions all on         RMCEdegen / RMCErcd / RMCEfacen / RMCErevised
global_reduction=False    Table 3 "Variant1"
dynamic=False             Table 3 "Variant2"
maxcheck=False            Table 3 "Variant3"
========================  ==========================================

The outer loop is the degeneracy decomposition shared by all four methods
(Algorithm 2 lines 1-3 / Algorithm 4): for each vertex ``v`` in degeneracy
order, solve the induced subproblem ``(R={v}, P=N⁺(v), X=N⁻(v))``. That
per-root step is ``solve_root``; every Spark task (``repro.core.spark_rmce``)
runs it unchanged on the subproblem it is shipped.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.forbidden_reduction import reduce_forbidden, update_ignore_ids
from ..core.global_reduction import ReductionStats, global_reduce_local
from .bitgraph import LocalGraph, build_subproblem, degeneracy_order
from .metrics import Metrics
from .recursions import run_subproblem


@dataclass
class EngineResult:
    """Cliques plus instrumentation from one engine run."""

    cliques: set[tuple[int, ...]]
    reported: list[tuple[int, ...]] = field(default_factory=list)
    metrics: Metrics = field(default_factory=Metrics)
    degeneracy: int = 0
    reduction_stats: ReductionStats | None = None

    @property
    def n_cliques(self) -> int:
        return len(self.cliques)


def solve_root(
    g: LocalGraph,
    v: int,
    i: int,
    p_ids: list[int],
    x_ids: list[int],
    ignore_id: dict[int, int] | None,
    ignore_dom: dict[int, int],
    rank: dict[int, int],
    recursion: str,
    dynamic: bool,
    report,
    metrics: Metrics,
) -> None:
    """Solve the subproblem ``(R={v}, P=p_ids, X=x_ids)`` of the vertex at
    order position ``i``: the per-root step of the local engine and of every
    Spark task.

    ``p_ids`` is ``N⁺(v)`` in rank order and ``x_ids`` is ``N⁻(v)``. With an
    ``ignore_id`` table (maxcheck on), ``X`` first loses the vertices the
    chain-sound Algorithm 8 drop allows (a vertex without an entry is kept);
    ``rank`` must cover ``X`` and ``ignore_dom`` every entry. ``g`` must hold
    the adjacency among ``P`` and between ``X`` and ``P``.
    Adds this subproblem's Fig. 10 counts to ``metrics``.
    """
    metrics.subproblems += 1
    metrics.x_before += len(x_ids)
    if ignore_id is not None:
        x_kept = reduce_forbidden(x_ids, i, ignore_id, ignore_dom, rank)
    else:
        x_kept = x_ids
    metrics.x_after += len(x_kept)
    if len(x_kept) < len(x_ids):
        metrics.subproblems_reduced += 1
    if not p_ids and x_kept:
        # No candidates and maximality already broken: skip the frame
        # entirely (still a subproblem for the Fig. 10 accounting above).
        return
    sub = build_subproblem(g, v, p_ids, x_kept)
    run_subproblem(sub, recursion, dynamic, report, metrics)


def enumerate_cliques(
    graph: LocalGraph | np.ndarray,
    recursion: str = "pivot",
    global_reduction: bool = True,
    dynamic: bool = True,
    maxcheck: bool = True,
    track_visits: bool = False,
) -> EngineResult:
    """Enumerate all maximal cliques (size ≥ 2) of ``graph``.

    ``graph`` may be a ``LocalGraph`` or an ``(m, 2)`` edge array.
    """
    g = graph if isinstance(graph, LocalGraph) else LocalGraph.from_edges(graph)
    metrics = Metrics()
    if track_visits:
        metrics.enable_visits()
    reported: list[tuple[int, ...]] = []

    def report(vs) -> None:
        reported.append(tuple(sorted(vs)))

    red_stats: ReductionStats | None = None
    if global_reduction:
        g2, pre, red_stats = global_reduce_local(g)
        reported.extend(pre)
        metrics.reduction_cliques += len(pre)
    else:
        g2 = g

    order, _core, lam = degeneracy_order(g2)
    rank = {v: i for i, v in enumerate(order)}
    nplus = {
        v: frozenset(u for u in g2.adj[v] if rank[u] > rank[v]) for v in order
    }
    n = len(order)
    ignore_id = {v: n for v in order} if maxcheck else None
    ignore_dom: dict[int, int] = {}

    for i, v in enumerate(order):
        p_ids = sorted(nplus[v], key=rank.__getitem__)
        x_ids = [u for u in g2.adj[v] if rank[u] < i]
        solve_root(
            g2, v, i, p_ids, x_ids, ignore_id, ignore_dom, rank,
            recursion, dynamic, report, metrics,
        )
        if ignore_id is not None:
            update_ignore_ids(ignore_id, ignore_dom, v, i, p_ids, nplus, rank)

    metrics.cliques = len(reported)
    return EngineResult(
        cliques=set(reported),
        reported=reported,
        metrics=metrics,
        degeneracy=lam,
        reduction_stats=red_stats,
    )


def algorithm_config(name: str) -> dict:
    """Map a paper algorithm name to engine kwargs.

    Accepts BKdegen/BKrcd/BKfacen/BKrevised, RMCEdegen/… and the Table 3
    Variant1/2/3 names (which are RMCEdegen minus one reduction).
    """
    name = name.strip()
    variants = {
        "Variant1": dict(recursion="pivot", global_reduction=False, dynamic=True, maxcheck=True),
        "Variant2": dict(recursion="pivot", global_reduction=True, dynamic=False, maxcheck=True),
        "Variant3": dict(recursion="pivot", global_reduction=True, dynamic=True, maxcheck=False),
    }
    if name in variants:
        return variants[name]
    suffix_map = {"degen": "pivot", "rcd": "rcd", "facen": "facen", "revised": "revised"}
    for prefix, reduced in (("RMCE", True), ("BK", False)):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix in suffix_map:
                return dict(
                    recursion=suffix_map[suffix],
                    global_reduction=reduced,
                    dynamic=reduced,
                    maxcheck=reduced,
                )
    raise ValueError(f"unknown algorithm name {name!r}")
