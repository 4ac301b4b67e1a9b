"""Tests for Algorithm 1 (single-k top-down search) and Proposition 4.3."""
import pytest

from repro.core import GlobalSpec, PropSpec
from repro.core.pattern import EMPTY, normalize_frontier, satisfies
from repro.core.result import SearchStats, SearchTimeout
from repro.core.topdown import top_down_search
from repro.datasets.hardness import hardness_construction
from tests.helpers import make_random_ranked


class _RecordingStore:
    """Proxy store that records every pattern whose stats the search
    evaluates — i.e. the nodes of the search tree T_k."""

    def __init__(self, inner):
        self._inner = inner
        self.queried = []

    def stat(self, p):
        self.queried.append(p)
        return self._inner.stat(p)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_res_and_dres_disjoint(paper_ds):
    store = paper_ds.pandas_store()
    violating = top_down_search(store, GlobalSpec({4: 2}), 4, 4, SearchStats())
    res = normalize_frontier(violating)
    dres = violating - res
    assert not res & dres
    for d in dres:
        assert any(
            len(r) < len(d) and set(r) <= set(d) for r in res
        ), "every DRes entry must have an ancestor in Res"


def test_violating_patterns_not_expanded(paper_ds):
    """No reported pattern may be a descendant of another reported one."""
    store = paper_ds.pandas_store()
    res = normalize_frontier(
        top_down_search(store, GlobalSpec({4: 2}), 1, 4, SearchStats())
    )
    for p in res:
        for q in res:
            if p != q:
                assert not set(p) < set(q)


def test_deadline_raises():
    ds = hardness_construction(12)
    store = ds.pandas_store()
    stats = SearchStats(deadline=0.0)  # already expired
    with pytest.raises(SearchTimeout):
        top_down_search(store, GlobalSpec({12: 7}), 1, 12, stats)


def test_examined_counter_counts_pops(paper_ds):
    store = paper_ds.pandas_store()
    stats = SearchStats()
    rec = _RecordingStore(paper_ds.pandas_store())
    top_down_search(rec, GlobalSpec({4: 2}), 4, 4, stats)
    assert stats.examined == len(rec.queried)


@pytest.mark.parametrize("k", [3, 5, 8, 12])
@pytest.mark.parametrize("spec", [GlobalSpec({1: 2}), PropSpec(0.8)])
def test_proposition_4_3(paper_ds, k, spec):
    """R(D)[k+1] satisfies at most half of the nodes of T_k (every
    attribute of the running example has ≥ 2 active values)."""
    store = paper_ds.pandas_store()
    rec = _RecordingStore(store)
    top_down_search(rec, spec, 1, k, SearchStats())
    nodes = [p for p in rec.queried if p != EMPTY]
    new_tuple = store.row_at_rank(k + 1)
    satisfied = sum(1 for p in nodes if satisfies(new_tuple, p))
    assert satisfied <= len(nodes) / 2


@pytest.mark.parametrize("seed", range(6))
def test_proposition_4_3_random(seed):
    ds = make_random_ranked(seed, n_min=30, n_max=60)
    store = ds.pandas_store()
    rec = _RecordingStore(store)
    k = 10
    top_down_search(rec, PropSpec(0.9), 1, k, SearchStats())
    nodes = [p for p in rec.queried if p != EMPTY]
    new_tuple = store.row_at_rank(k + 1)
    satisfied = sum(1 for p in nodes if satisfies(new_tuple, p))
    assert satisfied <= len(nodes) / 2
