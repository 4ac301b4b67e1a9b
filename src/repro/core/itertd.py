"""ITERTD — the paper's baseline: Algorithm 1 re-run for every k in the
range (Section IV-A). Handles both problem definitions through the spec."""
from __future__ import annotations

from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.pattern import normalize_frontier
from repro.core.result import SearchResult, SearchStats
from repro.core.store import BaseStatsStore
from repro.core.topdown import top_down_search


def iter_td(
    store: BaseStatsStore,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
) -> SearchResult:
    """Detect most general biased patterns for each k by independent
    top-down searches — no state is carried between consecutive k values."""
    stats = SearchStats(deadline=deadline)
    res = {}
    for k in range(k_min, k_max + 1):
        violating = top_down_search(store, spec, tau, k, stats)
        res[k] = normalize_frontier(violating)
    return SearchResult(res=res, stats=stats)
