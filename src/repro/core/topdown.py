"""Algorithm 1: single-k top-down search over the pattern search tree.

BFS from the children of the empty pattern. Pruning rules (both counts are
anti-monotone along pattern-graph edges):

* ``s_D(p) < τ_s`` — prune ``p`` and its subtree (descendants are smaller);
* ``p`` violating — record it and do *not* expand (descendants are also
  violating, hence not most general);
* otherwise expand ``p``'s search-tree children (Definition 4.1).

The search returns the set of generated violating patterns, the paper's
``Res ∪ DRes``. ``Res``, its most general members, is derived from it by
:func:`repro.core.pattern.normalize_frontier`; ``DRes`` is the rest and is
not stored.
"""
from __future__ import annotations

from collections import deque

from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.pattern import EMPTY, Pattern, children
from repro.core.result import SearchStats
from repro.core.store import BaseStatsStore


def top_down_search(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
) -> set[Pattern]:
    """Run Algorithm 1 for one ``k``; returns the generated violating
    patterns (``Res ∪ DRes``)."""
    violating: set[Pattern] = set()
    _search_from(store, spec, tau, k, stats, EMPTY, violating)
    return violating


def resume_search(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    node: Pattern,
    violating: set[Pattern],
) -> None:
    """``searchFromNode``: continue the top-down search from ``node``'s
    search-tree children, adding the violating patterns it meets to
    ``violating``."""
    _search_from(store, spec, tau, k, stats, node, violating)


def _search_from(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k: int,
    stats: SearchStats,
    node: Pattern,
    violating: set[Pattern],
) -> None:
    # Shared by both entry points, so that a call of resume_search always
    # means a searchFromNode restart and never a full search.
    n = store.n
    domains = store.domains
    queue: deque[Pattern] = deque(children(node, domains))
    while queue:
        p = queue.popleft()
        stats.examined += 1
        if stats.examined % 512 == 0:
            stats.check_deadline()
        st = store.stat(p)
        if st is None or st.size < tau:
            continue
        if spec.violates(st.topk(k), st.size, k, n):
            violating.add(p)
        else:
            queue.extend(children(p, domains))
