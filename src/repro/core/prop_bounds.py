"""PROPBOUNDS (Algorithm 3): incremental detection under proportional
representation bounds.

With the bound ``α·s_D(p)·k/|D|`` growing in k, a pattern can turn violating
without its count changing — GLOBALBOUNDS' pruning does not apply (Section
IV-C). PROPBOUNDS therefore tracks, for every generated *passing* pattern,
its ``k̃`` — the first k at which it becomes violating if its top-k count
stays fixed — in the map ``K``. Each step k:

1. ``selectiveTD``: walk the generated search tree along nodes satisfied by
   the new tuple ``R(D)[k]`` (only their counts changed) and re-evaluate
   each: a violating node that crossed back to passing leaves
   ``violating``, gets a fresh ``k̃`` and is expanded (children generated on
   first expansion); a passing node gets a recomputed ``k̃``; a passing node
   that turned violating moves from ``K`` to ``violating``.
2. ``K`` entries with ``k̃ ≤ k`` not satisfied by the new tuple (their count
   is unchanged, so the bound has caught up with them) become violating.
3. If ``violating`` changed, ``Res`` is derived from it again by
   :func:`normalize_frontier`; otherwise the previous ``Res`` is reused.

Deviation from the paper: the paper keeps in ``K`` only entries whose ``k̃``
decreases monotonically along a search-tree branch (a memory optimisation);
we keep the ``k̃`` of every passing generated pattern — same output, simpler
bookkeeping (see DESIGN.md §2). Nor is the paper's ``DRes`` stored: it is
``violating − Res``.

Invariants (checked in tests via ``check_invariants``): ``violating`` is
the set of generated currently-violating patterns and ``K`` holds the other
generated patterns, each expanded and with ``k̃ > k``.
"""
from __future__ import annotations

from repro.core.bounds import PropSpec, k_tilde
from repro.core.global_bounds import normalize_frontier
from repro.core.pattern import EMPTY, Pattern, children, satisfies
from repro.core.result import SearchResult, SearchStats
from repro.core.store import BaseStatsStore


class _PropState:
    """Mutable search state shared across k iterations."""

    def __init__(
        self,
        store: BaseStatsStore,
        spec: PropSpec,
        tau: int,
        stats: SearchStats,
    ):
        self.store = store
        self.spec = spec
        self.tau = tau
        self.stats = stats
        #: Generated patterns that currently violate (``Res ∪ DRes``).
        self.violating: set[Pattern] = set()
        self.K: dict[Pattern, int] = {}  # k̃ of passing patterns
        #: Generated substantial children of every expanded pattern.
        self.children_of: dict[Pattern, list[Pattern]] = {}
        #: Set when ``violating`` changes; Res is only re-derived then.
        self.dirty = False

    # -- evaluation / expansion -------------------------------------------
    def evaluate(self, p: Pattern, k: int) -> None:
        """(Re-)evaluate the status of a generated pattern at position k;
        expand it on a violating→passing transition. Afterwards ``p``
        either violates or has ``k̃ > k``."""
        self.stats.examined += 1
        if self.stats.examined % 512 == 0:
            self.stats.check_deadline()
        st = self.store.stat(p)
        c = st.topk(k)
        if self.spec.violates(c, st.size, k, self.store.n):
            if p not in self.violating:
                self.dirty = True
                self.violating.add(p)
                self.K.pop(p, None)
        else:
            if p in self.violating:
                self.dirty = True
                self.violating.discard(p)
            self.K[p] = k_tilde(c, st.size, self.spec.alpha, self.store.n)
            if p not in self.children_of:
                self.expand(p, k)

    def expand(self, p: Pattern, k: int) -> None:
        """Generate ``p``'s search-tree children (τ_s-substantial only) and
        evaluate each — recursing through their own expansions."""
        kept = self.children_of[p] = []
        for child in children(p, self.store.domains):
            self.stats.examined += 1
            st = self.store.stat(child)
            if st is None or st.size < self.tau:
                continue
            kept.append(child)
            self.evaluate(child, k)

    # -- per-step phases ---------------------------------------------------
    def selective_td(self, new_tuple: tuple, k: int) -> None:
        """Walk generated nodes satisfied by the new tuple (they form a
        connected subtree rooted at the empty pattern), re-evaluating each.

        A node's children are read before it is evaluated: a node expanded
        by that evaluation has just had its children evaluated, so none of
        them is pushed again."""
        stack = [
            c for c in self.children_of[EMPTY] if satisfies(new_tuple, c)
        ]
        while stack:
            p = stack.pop()
            kids = self.children_of.get(p, ())
            self.evaluate(p, k)
            stack.extend(c for c in kids if satisfies(new_tuple, c))

    def fire_k_tilde(self, k: int) -> None:
        """Patterns whose ``k̃`` has been reached without a count change are
        now violating (Algorithm 3, line 6). A pattern evaluated at this k
        already violates or has ``k̃ > k``, so none is evaluated twice."""
        due = [p for p, kt in self.K.items() if kt <= k]
        for p in due:
            self.evaluate(p, k)

    def check_invariants(self, k: int, res: frozenset[Pattern]) -> None:
        """Debug/test hook: verify the documented invariants at position k,
        and that ``res`` is the Res derived from the current state."""
        n = self.store.n
        for p in self.violating:
            st = self.store.stat(p)
            assert self.spec.violates(st.topk(k), st.size, k, n), p
        for p, kt in self.K.items():
            assert p not in self.violating, p
            assert kt > k and p in self.children_of, (p, kt, k)
        assert res == normalize_frontier(self.violating), k


def prop_bounds(
    store: BaseStatsStore,
    spec: PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    deadline: float | None = None,
    _debug_invariants: bool = False,
) -> SearchResult:
    """Detect most general patterns with biased proportional representation
    for every k in ``[k_min, k_max]`` (Algorithm 3)."""
    stats = SearchStats(deadline=deadline)
    s = _PropState(store, spec, tau, stats)
    s.expand(EMPTY, k_min)  # full top-down search for k_min
    res = normalize_frontier(s.violating)
    out = {k_min: res}
    if _debug_invariants:
        s.check_invariants(k_min, res)

    for k in range(k_min + 1, k_max + 1):
        stats.check_deadline()
        s.dirty = False
        s.selective_td(store.row_at_rank(k), k)
        s.fire_k_tilde(k)
        if s.dirty:
            res = normalize_frontier(s.violating)
        out[k] = res
        if _debug_invariants:
            s.check_invariants(k, res)
    return SearchResult(res=out, stats=stats)
