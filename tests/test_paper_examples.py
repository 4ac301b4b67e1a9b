"""Fidelity tests: every worked example in the paper, asserted verbatim on
the Figure-1 data (Examples 2.3–2.5, 4.2, 4.6, 4.7, 4.9)."""
import pytest

from repro.core import (
    EMPTY,
    GlobalSpec,
    PropSpec,
    brute_force,
    children,
    global_bounds,
    iter_td,
    k_tilde,
    prop_bounds,
)
from repro.core.pattern import normalize_frontier
from repro.core.topdown import top_down_search
from repro.core.result import SearchStats

# Attribute indices in the running example.
G, S, A, F = 0, 1, 2, 3


@pytest.fixture(scope="module")
def store(paper_ds):
    return paper_ds.pandas_store()


def test_example_4_2_search_tree_edges(store):
    """{G=F, S=GP} is a search-tree child of {G=F} but not of {S=GP}."""
    target = ((G, "F"), (S, "GP"))
    assert target in set(children(((G, "F"),), store.domains))
    assert target not in set(children(((S, "GP"),), store.domains))


class TestExample46GlobalBounds:
    """Example 4.6: τ_s=4, k ∈ [4,5], L_4 = L_5 = 2."""

    SPEC = GlobalSpec({4: 2})

    @pytest.fixture(scope="class")
    def results(self, store):
        return {
            "iter": iter_td(store, self.SPEC, 4, 4, 5).res,
            "global": global_bounds(store, self.SPEC, 4, 4, 5).res,
            "brute": brute_force(store, self.SPEC, 4, 4, 5).res,
        }

    def test_res4_contains_papers_patterns(self, results):
        for res in results.values():
            assert ((A, "U"),) in res[4]
            assert ((F, "1"),) in res[4]

    def test_dres_after_k4(self, store):
        """The four DRes patterns listed in Example 4.6 are generated and
        rejected (ancestor in Res) during the k=4 search."""
        violating = top_down_search(store, self.SPEC, 4, 4, SearchStats())
        dres = violating - normalize_frontier(violating)
        expected = {
            ((G, "F"), (A, "U")),
            ((G, "M"), (A, "U")),
            ((G, "F"), (F, "1")),
            ((A, "R"), (F, "1")),
        }
        assert expected <= dres

    def test_res5_swaps_parents_for_children(self, results):
        """At k=5 {Address=U} and {Failures=1} cross the bound; their
        child {Address=U, Failures=1} and the four DRes patterns enter."""
        for res in results.values():
            assert ((A, "U"),) not in res[5]
            assert ((F, "1"),) not in res[5]
            assert ((A, "U"), (F, "1")) in res[5]
            for p in [
                ((G, "F"), (A, "U")),
                ((G, "M"), (A, "U")),
                ((G, "F"), (F, "1")),
                ((A, "R"), (F, "1")),
            ]:
                assert p in res[5]

    def test_all_algorithms_agree(self, results):
        assert results["iter"] == results["brute"]
        assert results["global"] == results["brute"]


class TestExample49PropBounds:
    """Example 4.9: τ_s=5, k ∈ [4,5], α=0.9."""

    SPEC = PropSpec(0.9)

    @pytest.fixture(scope="class")
    def results(self, store):
        return {
            "iter": iter_td(store, self.SPEC, 5, 4, 5).res,
            "prop": prop_bounds(
                store, self.SPEC, 5, 4, 5, _debug_invariants=True
            ).res,
            "brute": brute_force(store, self.SPEC, 5, 4, 5).res,
        }

    def test_res4_exact(self, results):
        expected = {((S, "GP"),), ((A, "U"),), ((F, "1"),)}
        for res in results.values():
            assert res[4] == expected

    def test_res5_adds_gender_f(self, results):
        """{Gender=F} hits its k̃=5 while its count stays 2 → reported;
        {Address=U} and {Failures=1} stay despite larger top-5 counts
        because their bounds grew too."""
        expected = {
            ((S, "GP"),),
            ((A, "U"),),
            ((F, "1"),),
            ((G, "F"),),
        }
        for res in results.values():
            assert res[5] == expected

    def test_k_tilde_values_of_example(self, store):
        """k̃ of the patterns discussed in Example 4.9 (α=0.9, n=16)."""
        c_m = store.stat(((G, "M"),)).topk(4)
        c_f = store.stat(((G, "F"),)).topk(4)
        assert (c_m, c_f) == (2, 2)
        assert k_tilde(2, 8, 0.9, 16) == 5  # {Gender=M}, {Gender=F}
        assert k_tilde(3, 8, 0.9, 16) == 7  # {School=MS}, {Address=R}
        assert k_tilde(3, 6, 0.9, 16) == 9  # {School=MS, Address=R}

    def test_all_algorithms_agree(self, results):
        assert results["iter"] == results["brute"]
        assert results["prop"] == results["brute"]


def test_empty_range_single_k(store):
    """k_min == k_max degenerates to a single Algorithm-1 search."""
    spec = GlobalSpec({5: 2})
    r1 = iter_td(store, spec, 4, 5, 5).res
    r2 = global_bounds(store, spec, 4, 5, 5).res
    res = normalize_frontier(top_down_search(store, spec, 4, 5, SearchStats()))
    assert r1[5] == r2[5] == res
