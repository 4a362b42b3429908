"""Maximality-check reduction (paper §6, Lemma 9 + Algorithm 8).

``ignoreId[v]`` records the earliest outer iteration after which ``v`` may be
dropped from a forbidden set, justified by neighborhood dominance
(Lemma 9). Both Algorithm 8 update rules read only the static ``N⁺`` sets
(rule A takes precedence via the paper's else-if):

- rule A (lines 7-9):   ``P∖{u} ⊆ N⁺(u)``  ⇒ ``ignoreId[v] ← min(·, ord(u))``
- rule B (lines 10-11): ``N⁺(u) ⊆ P∖{u}``  ⇒ ``ignoreId[u] ← min(·, ord(v))``

(The paper writes ``P ⊆ N⁺(u)`` with ``u ∈ P``, which is unsatisfiable since
``u ∉ N⁺(u)``; both rules are read with ``P∖{u}``.)

**Soundness repair (documented deviation, DESIGN.md §2.3).** Dropping every
``u ∈ X`` with ``ignoreId[u] < i`` — Algorithm 8 lines 2-5 verbatim — is
unsound: each entry is justified by a *dominator* whose restricted
neighborhood contains the dropped vertex's, but dominators can themselves be
dropped, and justification chains can be cyclic once neighborhoods collapse
to equality under restriction to the current candidate set (a 10-vertex
counterexample where the chain 0→1→3→0 erases every witness of a
non-maximal clique lives in ``tests/test_forbidden_reduction.py``). Repair:
record the arg-min dominator with each entry and, per subproblem, drop
``u`` only if its dominator chain reaches a **retained** vertex; chains that
close a cycle retain the cycle's max-rank member (the rest may then drop).
Every chain edge preserves ``N(a)∩S ⊆ N(b)∩S`` for the later-than-root
universe ``S`` and keeps the dominator inside ``X`` (adjacency to the root
follows from the rule's containment), so transitivity plus a retained
terminal dominator re-establishes Lemma 9 exactly.
"""
from __future__ import annotations

from ..mce.bitgraph import LocalGraph

_RETAIN, _DROP = 0, 1


def update_ignore_ids(
    ignore_id: dict[int, int],
    ignore_dom: dict[int, int],
    v: int,
    i: int,
    p_ids: list[int],
    nplus: dict[int, frozenset[int]],
    rank: dict[int, int],
) -> None:
    """Algorithm 8 lines 6-11 for the subproblem induced by ``v`` (order
    ``i``, candidates ``p_ids`` = N⁺(v)). Mutates ``ignore_id``/``ignore_dom``."""
    pset = nplus[v]
    psize = len(p_ids)
    for u in p_ids:
        pu = nplus[u]
        if psize - 1 <= len(pu) and all(w == u or w in pu for w in p_ids):
            # Rule A: v is dominated by u in every subproblem after ord(u).
            if rank[u] < ignore_id[v]:
                ignore_id[v] = rank[u]
                ignore_dom[v] = u
        elif len(pu) <= psize - 1 and pu <= pset:
            # Rule B: u is dominated by v in every subproblem after i.
            if i < ignore_id[u]:
                ignore_id[u] = i
                ignore_dom[u] = v


def compute_ignore_ids(
    g: LocalGraph, order: list[int], rank: dict[int, int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Closed-form ``(ignoreId, dominator)``: run both rules for every vertex.
    Equals the engine's incremental sweep because updates never feed back
    into the rules — this is the form the Spark pipeline parallelizes."""
    n = len(order)
    nplus = {v: frozenset(u for u in g.adj[v] if rank[u] > rank[v]) for v in order}
    ignore_id = {v: n for v in order}
    ignore_dom: dict[int, int] = {}
    for i, v in enumerate(order):
        p_ids = sorted(nplus[v], key=rank.__getitem__)
        update_ignore_ids(ignore_id, ignore_dom, v, i, p_ids, nplus, rank)
    return ignore_id, ignore_dom


def reduce_forbidden(
    x_ids: list[int],
    i: int,
    ignore_id: dict[int, int],
    ignore_dom: dict[int, int],
    rank: dict[int, int],
) -> list[int]:
    """Drop ignorable vertices from ``X`` with chain-sound resolution.

    A vertex with ``ignoreId[u] < i`` is dropped iff following dominators
    reaches a vertex retained in this subproblem; a dominance cycle keeps
    its max-rank member. A vertex without an ``ignore_id`` entry is kept.
    Returns the retained ``X`` in original order.
    """
    status: dict[int, int] = {}

    def resolve(u: int) -> int:
        path: list[int] = []
        on_path: set[int] = set()
        cur = u
        while True:
            if ignore_id.get(cur, i) >= i and cur not in status:
                status[cur] = _RETAIN
            s = status.get(cur)
            if s is not None:
                # Terminal is retained, or already known to drop (and hence
                # transitively reaches a retained dominator): either way the
                # whole path has a retained dominator downstream → drop it.
                for p in path:
                    status[p] = _DROP
                return status[u]
            if cur in on_path:
                # Dominance cycle: keep the max-rank member, drop the rest.
                k = path.index(cur)
                cyc = path[k:]
                keep = max(cyc, key=rank.__getitem__)
                for p in cyc:
                    status[p] = _RETAIN if p == keep else _DROP
                for p in path[:k]:
                    status[p] = _DROP
                return status[u]
            path.append(cur)
            on_path.add(cur)
            cur = ignore_dom[cur]

    out: list[int] = []
    for u in x_ids:
        if ignore_id.get(u, i) >= i:
            out.append(u)
        elif resolve(u) == _RETAIN:
            out.append(u)
    return out
