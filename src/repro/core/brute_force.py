"""Brute-force reference for both problem definitions.

Enumerates *every* pattern with ``s_D(p) ≥ τ_s`` (over all attribute
subsets), finds the violating ones per k, and keeps those with no violating
proper subpattern — a direct transcription of the most-general-pattern
definition in Section III, with none of the search-tree machinery. Used as
the correctness oracle for ITERTD / GLOBALBOUNDS / PROPBOUNDS in tests.
Exponential in the attribute count; only run it on few attributes.
"""
from __future__ import annotations

from itertools import combinations

from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.pattern import Pattern
from repro.core.result import SearchResult, SearchStats
from repro.core.store import BaseStatsStore, PatternStat


def _all_substantial(
    store: BaseStatsStore, tau: int
) -> dict[Pattern, PatternStat]:
    """Every pattern with size ≥ τ_s, over every attribute subset.

    Any ancestor of a substantial pattern is substantial too (sizes are
    anti-monotone), so this set is closed under generalization — the
    most-general check below never needs a pattern outside it.
    """
    n_attrs = len(store.attr_names)
    out: dict[Pattern, PatternStat] = {}
    for r in range(1, n_attrs + 1):
        for attr_set in combinations(range(n_attrs), r):
            for vals, stat in store.group(attr_set).items():
                if stat.size >= tau:
                    out[tuple(zip(attr_set, vals))] = stat
    return out


def brute_force(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
) -> SearchResult:
    """Reference result: most general substantial violating patterns per k."""
    substantial = _all_substantial(store, tau)
    n = store.n
    res: dict[int, frozenset[Pattern]] = {}
    for k in range(k_min, k_max + 1):
        violating = {
            p
            for p, st in substantial.items()
            if spec.violates(st.topk(k), st.size, k, n)
        }
        most_general = set()
        for p in violating:
            items = list(p)
            has_violating_ancestor = any(
                tuple(anc) in violating
                for r in range(1, len(items))
                for anc in combinations(items, r)
            )
            if not has_violating_ancestor:
                most_general.add(p)
        res[k] = frozenset(most_general)
    return SearchResult(res=res, stats=SearchStats())
