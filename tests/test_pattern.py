"""Unit tests for the pattern model and search-tree children (Def. 4.1)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern import (
    EMPTY,
    attr_indices,
    children,
    max_index,
    normalize_frontier,
    pattern_to_str,
    satisfies,
    values,
)

DOMAINS = [["a", "b"], ["x", "y", "z"], ["0", "1"]]


def test_empty_pattern_basics():
    assert attr_indices(EMPTY) == ()
    assert values(EMPTY) == ()
    assert max_index(EMPTY) == -1


def test_attr_indices_and_values():
    p = ((0, "a"), (2, "1"))
    assert attr_indices(p) == (0, 2)
    assert values(p) == ("a", "1")
    assert max_index(p) == 2


def test_satisfies_empty_pattern_always():
    assert satisfies(("a", "x", "0"), EMPTY)


@pytest.mark.parametrize(
    "row,p,expected",
    [
        (("a", "x", "0"), ((0, "a"),), True),
        (("a", "x", "0"), ((0, "b"),), False),
        (("a", "x", "0"), ((0, "a"), (1, "x")), True),
        (("a", "x", "0"), ((0, "a"), (1, "y")), False),
        (("b", "z", "1"), ((2, "1"),), True),
    ],
)
def test_satisfies(row, p, expected):
    assert satisfies(row, p) is expected


def test_children_of_root_covers_all_single_attr_patterns():
    kids = list(children(EMPTY, DOMAINS))
    assert len(kids) == 2 + 3 + 2
    assert ((0, "a"),) in kids and ((2, "1"),) in kids


def test_children_only_extend_with_larger_index():
    """Definition 4.1: {G=F, S=GP} is a tree child of {G=F} only."""
    kids_of_g = list(children(((0, "a"),), DOMAINS))
    assert ((0, "a"), (1, "x")) in kids_of_g
    kids_of_s = list(children(((1, "x"),), DOMAINS))
    assert all(max_index(c) == 2 for c in kids_of_s)


def test_children_of_max_index_pattern_is_empty():
    assert list(children(((2, "0"),), DOMAINS)) == []


def test_pattern_to_str():
    names = ["Gender", "School"]
    assert pattern_to_str(EMPTY, names) == "{}"
    assert (
        pattern_to_str(((0, "F"), (1, "GP")), names) == "{Gender=F, School=GP}"
    )


_PAIRS = st.tuples(st.integers(0, 3), st.sampled_from("ab"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(_PAIRS, max_size=4), max_size=12))
def test_normalize_frontier_matches_pairwise_definition(pair_sets):
    """Res is the set of patterns with no proper subpattern in the
    violating set, whatever the set holds (the empty pattern included)."""
    violating = {
        tuple(sorted(dict(sorted(pairs)).items())) for pairs in pair_sets
    }
    expected = {
        p for p in violating if not any(set(q) < set(p) for q in violating)
    }
    assert normalize_frontier(violating) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30))
def test_search_tree_parent_unique(seed):
    """Every non-empty pattern reachable from the root has exactly one tree
    parent — the search tree is a tree (each pattern visited once)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n_attrs = int(rng.integers(1, 4))
    doms = [["0", "1"] for _ in range(n_attrs)]
    seen: dict = {}
    stack = [EMPTY]
    while stack:
        p = stack.pop()
        for c in children(p, doms):
            assert c not in seen, "pattern generated twice"
            seen[c] = p
            stack.append(c)
    for c, par in seen.items():
        assert par == c[:-1]
