"""GLOBALBOUNDS (Algorithm 2): incremental detection under global bounds.

Key facts exploited (Section IV-B): the top-k and top-(k+1) sets differ by
the single tuple ``R(D)[k+1]``, and with a fixed lower bound top-k counts
only grow with k — so *passing is absorbing*. Invariants maintained between
consecutive k values (when ``L_k`` is unchanged):

* ``violating`` (the paper's ``Res ∪ DRes``) is exactly the set of
  generated, currently-violating patterns (with ``s_D ≥ τ_s``);
* every generated pattern that passes the bound has been expanded (its
  search-tree children generated) — either during a full search or by
  ``searchFromNode`` at the step it crossed the bound.

Per step only patterns satisfied by the new tuple can cross from violating
to passing (Proposition 4.3 bounds these by half the tree); each crosser
leaves ``violating`` and is expanded. ``Res`` is derived from ``violating``
by :func:`normalize_frontier`, only on steps with crossers; other steps
reuse the previous ``Res``. When the bound increases, a fresh full
top-down search runs (Algorithm 2, lines 4–5).
"""
from __future__ import annotations

from repro.core.bounds import GlobalSpec
from repro.core.pattern import normalize_frontier, satisfies
from repro.core.result import SearchResult, SearchStats
from repro.core.store import BaseStatsStore
from repro.core.topdown import resume_search, top_down_search


def global_bounds(
    store: BaseStatsStore,
    spec: GlobalSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
) -> SearchResult:
    """Detect most general patterns with biased representation (global
    lower bounds) for every k in ``[k_min, k_max]``."""
    stats = SearchStats(deadline=deadline)
    violating = top_down_search(store, spec, tau, k_min, stats)
    res = normalize_frontier(violating)
    out = {k_min: res}

    for k in range(k_min + 1, k_max + 1):
        stats.check_deadline()
        if spec.L(k) > spec.L(k - 1):
            # Bound increased: previous search state is invalid; restart.
            violating = top_down_search(store, spec, tau, k, stats)
            res = normalize_frontier(violating)
        else:
            new_tuple = store.row_at_rank(k)
            # Only patterns the new tuple satisfies can have changed counts.
            affected = [p for p in violating if satisfies(new_tuple, p)]
            crossed = False
            for p in affected:
                stats.examined += 1
                st = store.stat(p)
                if not spec.violates(st.topk(k), st.size, k, store.n):
                    # p crossed the bound: drop it and resume the top-down
                    # search from its search-tree children (searchFromNode).
                    violating.discard(p)
                    resume_search(store, spec, tau, k, stats, p, violating)
                    crossed = True
            if crossed:
                res = normalize_frontier(violating)
        out[k] = res
    return SearchResult(res=out, stats=stats)
