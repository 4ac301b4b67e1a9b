"""Pattern model (paper Definition 2.2) and search-tree children (Def. 4.1).

A *pattern* is a conjunction of attribute/value pairs. We represent it as a
tuple of ``(attr_index, value)`` pairs sorted by attribute index, where the
index refers to the dataset's ordered list of pattern attributes and values
are strings (all pattern attributes are categorical/bucketized). Tuples are
hashable, orderable and cheap — the search algorithms keep millions of them.
"""
from __future__ import annotations

from itertools import combinations
from typing import AbstractSet, Iterator, Sequence

#: A pattern: ``((attr_idx, value), ...)`` sorted ascending by ``attr_idx``.
Pattern = tuple[tuple[int, str], ...]

#: The most general (empty) pattern — satisfied by every tuple.
EMPTY: Pattern = ()


def attr_indices(p: Pattern) -> tuple[int, ...]:
    """The sorted attribute indices referenced by ``p`` (``Attr(p)``)."""
    return tuple(a for a, _ in p)


def values(p: Pattern) -> tuple[str, ...]:
    """The value assignments of ``p`` in attribute-index order."""
    return tuple(v for _, v in p)


def max_index(p: Pattern) -> int:
    """``idx(Attr(p))`` of Definition 4.1; ``-1`` for the empty pattern."""
    return p[-1][0] if p else -1


def satisfies(row: Sequence[str], p: Pattern) -> bool:
    """True iff a tuple (as a value list indexed by attribute index)
    satisfies ``p``, i.e. matches every pair of ``p``."""
    return all(row[a] == v for a, v in p)


def normalize_frontier(violating: AbstractSet[Pattern]) -> frozenset[Pattern]:
    """The most general members of a violating set: those with no proper
    subpattern in it (the paper's ``Res``; the rest is its ``DRes``).

    Each pattern's proper subpatterns are enumerated and looked up, so the
    cost per pattern is ``2^|p|`` set lookups, independent of the set size.
    """
    return frozenset(
        p
        for p in violating
        if not any(
            a in violating for r in range(len(p)) for a in combinations(p, r)
        )
    )


def children(
    p: Pattern, domains: Sequence[Sequence[str]]
) -> Iterator[Pattern]:
    """Children of ``p`` in the search tree (Definition 4.1): extend ``p``
    with one ``A_j = v`` pair where ``j`` exceeds every index in ``p`` and
    ``v`` ranges over the active domain of ``A_j``."""
    for j in range(max_index(p) + 1, len(domains)):
        for v in domains[j]:
            yield p + ((j, v),)


def pattern_to_str(p: Pattern, attr_names: Sequence[str]) -> str:
    """Human-readable form, e.g. ``{sex=F, address=R}``."""
    if not p:
        return "{}"
    return "{" + ", ".join(f"{attr_names[a]}={v}" for a, v in p) + "}"
