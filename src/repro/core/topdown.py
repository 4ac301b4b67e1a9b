"""Algorithm 1: single-k top-down search over the pattern search tree.

BFS from the children of the empty pattern. Pruning rules (both counts are
anti-monotone along pattern-graph edges):

* ``s_D(p) < τ_s`` — prune ``p`` and its subtree (descendants are smaller);
* ``p`` violating — report via ``update`` and do *not* expand (descendants
  are also violating, hence not most general);
* otherwise expand ``p``'s search-tree children (Definition 4.1).

``update`` adds a violating pattern to ``Res`` unless a pattern-graph
ancestor is already in ``Res``; rejected patterns are recorded in ``DRes``
(the paper's bookkeeping reused by GLOBALBOUNDS for incremental restarts).
"""
from __future__ import annotations

from collections import deque

from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.pattern import EMPTY, Pattern, children, has_ancestor_in
from repro.core.result import SearchStats
from repro.core.store import BaseStatsStore


def top_down_search(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    roots: list[Pattern] | None = None,
) -> tuple[set[Pattern], set[Pattern]]:
    """Run Algorithm 1 for one ``k``; returns ``(Res, DRes)``.

    ``roots`` lets GLOBALBOUNDS resume the search from the children of a
    specific node (``searchFromNode``); the default starts from the root.
    When resuming, pass the current ``Res``/``DRes`` via
    :func:`resume_search` instead.
    """
    res: set[Pattern] = set()
    dres: set[Pattern] = set()
    start = roots if roots is not None else [EMPTY]
    queue: deque[Pattern] = deque()
    for r in start:
        queue.extend(children(r, store.domains))
    _drain(store, spec, tau, k, stats, queue, res, dres)
    return res, dres


def resume_search(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    node: Pattern,
    res: set[Pattern],
    dres: set[Pattern],
) -> None:
    """``searchFromNode``: continue the top-down search from ``node``'s
    search-tree children, updating ``res``/``dres`` in place."""
    queue: deque[Pattern] = deque(children(node, store.domains))
    _drain(store, spec, tau, k, stats, queue, res, dres)


def _drain(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    queue: deque[Pattern],
    res: set[Pattern],
    dres: set[Pattern],
) -> None:
    n = store.n
    domains = store.domains
    while queue:
        p = queue.popleft()
        stats.examined += 1
        if stats.examined % 512 == 0:
            stats.check_deadline()
        st = store.stat(p)
        if st is None or st.size < tau:
            continue
        if spec.violates(st.topk(k), st.size, k, n):
            if has_ancestor_in(p, res):
                dres.add(p)
            else:
                res.add(p)
        else:
            queue.extend(children(p, domains))
