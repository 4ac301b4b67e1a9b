"""PROPBOUNDS (Algorithm 3): incremental detection under proportional
representation bounds.

With the bound ``α·s_D(p)·k/|D|`` growing in k, a pattern can turn violating
without its count changing — GLOBALBOUNDS' pruning does not apply (Section
IV-C). PROPBOUNDS therefore tracks, for every generated *passing* pattern,
its ``k̃`` — the first k at which it becomes violating if its top-k count
stays fixed — in the map ``K``. Each step k:

1. ``selectiveTD``: walk the generated search tree along nodes satisfied by
   the new tuple ``R(D)[k]`` (only their counts changed) and re-evaluate
   each: a violating node that crossed back to passing is removed from
   Res/DRes, given a fresh ``k̃`` and expanded (children generated on first
   expansion); a passing node gets a recomputed ``k̃``; a passing node that
   turned violating moves into Res/DRes.
2. ``K`` entries with ``k̃ ≤ k`` not satisfied by the new tuple (their count
   is unchanged, so the bound has caught up with them) become violating.
3. The promotion pass moves DRes entries with no remaining Res ancestor
   into Res.

Deviation from the paper: the paper keeps in ``K`` only entries whose ``k̃``
decreases monotonically along a search-tree branch (a memory optimisation);
we keep the ``k̃`` of every passing generated pattern — same output, simpler
bookkeeping (see DESIGN.md §2).

Invariants (checked in tests via ``check_invariants``): ``Res ∪ DRes`` is
the set of generated currently-violating patterns, ``Res`` its most general
subset; every pattern that has ever passed the bound has been expanded.
"""
from __future__ import annotations

from repro.core.bounds import PropSpec, k_tilde
from repro.core.global_bounds import normalize_frontier
from repro.core.pattern import (
    EMPTY,
    Pattern,
    children,
    has_ancestor_in,
    is_subpattern,
    satisfies,
)
from repro.core.result import SearchResult, SearchStats
from repro.core.store import BaseStatsStore

_PASS, _RES, _DRES = 0, 1, 2


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
        self.res: set[Pattern] = set()
        self.dres: set[Pattern] = set()
        self.state: dict[Pattern, int] = {}
        self.K: dict[Pattern, int] = {}  # k̃ of passing patterns
        self.children_of: dict[Pattern, list[Pattern]] = {}
        self.expanded: set[Pattern] = set()
        #: Set on any violating↔passing transition; the promote() pass only
        #: runs when the frontier actually changed this step.
        self.dirty = False

    # -- bookkeeping -------------------------------------------------------
    def _add_violating(self, p: Pattern) -> None:
        self.K.pop(p, None)
        if has_ancestor_in(p, self.res):
            self.dres.add(p)
            self.state[p] = _DRES
        else:
            self.res.add(p)
            self.state[p] = _RES
            # Unlike the global case, Res may hold descendants of a pattern
            # that just turned violating — demote them to DRes.
            for r in [r for r in self.res if len(p) < len(r) and is_subpattern(p, r)]:
                self.res.discard(r)
                self.dres.add(r)
                self.state[r] = _DRES

    def _mark_passing(self, p: Pattern, c: int, size: int, k: int) -> None:
        self.res.discard(p)
        self.dres.discard(p)
        self.state[p] = _PASS
        self.K[p] = k_tilde(c, size, self.spec.alpha, self.store.n)

    # -- evaluation / expansion -------------------------------------------
    def evaluate(self, p: Pattern, k: int, visited: set[Pattern]) -> None:
        """(Re-)evaluate the status of a generated pattern at position k;
        expand it on a violating→passing transition."""
        visited.add(p)
        self.stats.examined += 1
        if self.stats.examined % 512 == 0:
            self.stats.check_deadline()
        st = self.store.stat(p)
        c = st.topk(k)
        was = self.state.get(p)
        if self.spec.violates(c, st.size, k, self.store.n):
            if was in (_RES, _DRES):
                return  # still violating — nothing changes
            self.dirty = True
            self._add_violating(p)
        else:
            if was != _PASS:
                self.dirty = True
            self._mark_passing(p, c, st.size, k)
            if p not in self.expanded:
                self.expand(p, k, visited)

    def expand(self, p: Pattern, k: int, visited: set[Pattern]) -> None:
        """Generate ``p``'s search-tree children (τ_s-substantial only) and
        evaluate each — recursing through their own expansions."""
        self.expanded.add(p)
        kept: list[Pattern] = []
        for child in children(p, self.store.domains):
            self.stats.examined += 1
            st = self.store.stat(child)
            if st is None or st.size < self.tau:
                continue
            kept.append(child)
            self.evaluate(child, k, visited)
        self.children_of[p] = kept

    # -- per-step phases ---------------------------------------------------
    def selective_td(self, new_tuple: tuple, k: int, visited: set) -> None:
        """Walk generated nodes satisfied by the new tuple (they form a
        connected subtree rooted at the empty pattern), re-evaluating each."""
        stack = [
            c
            for c in self.children_of.get(EMPTY, [])
            if satisfies(new_tuple, c)
        ]
        while stack:
            p = stack.pop()
            if p not in visited:
                self.evaluate(p, k, visited)
            stack.extend(
                c
                for c in self.children_of.get(p, [])
                if c not in visited and satisfies(new_tuple, c)
            )

    def fire_k_tilde(self, k: int, visited: set[Pattern]) -> None:
        """Patterns whose ``k̃`` has been reached without a count change are
        now violating (Algorithm 3, line 6)."""
        due = [p for p, kt in self.K.items() if kt <= k and p not in visited]
        for p in due:
            self.evaluate(p, k, visited)

    def promote(self) -> None:
        """Normalize the violating frontier: Res = most general violating
        generated patterns (no violating ancestor in Res ∪ DRes), DRes the
        rest. A closed-form pass is order-independent, so mid-step
        transitions (crossers removed before their descendants were seen)
        cannot leave a stale split. Skipped when no transition happened
        this step (the split cannot have changed)."""
        if not self.dirty:
            return
        self.dirty = False
        normalize_frontier(self.res, self.dres)
        for p in self.res:
            self.state[p] = _RES
        for p in self.dres:
            self.state[p] = _DRES

    def check_invariants(self, k: int) -> None:
        """Debug/test hook: verify the documented invariants at position k."""
        n = self.store.n
        for p in self.res | self.dres:
            st = self.store.stat(p)
            assert self.spec.violates(st.topk(k), st.size, k, n), p
        for p in self.res:
            assert not has_ancestor_in(p, (self.res | self.dres) - {p}), p
        for d in self.dres:
            assert has_ancestor_in(d, self.res), d
        for p, kt in self.K.items():
            assert self.state[p] == _PASS and kt > k, (p, kt, k)


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
    visited: set[Pattern] = set()
    s.expand(EMPTY, k_min, visited)  # full top-down search for k_min
    s.promote()
    out = {k_min: frozenset(s.res)}
    if _debug_invariants:
        s.check_invariants(k_min)

    for k in range(k_min + 1, k_max + 1):
        stats.check_deadline()
        visited = set()
        new_tuple = store.row_at_rank(k)
        s.selective_td(new_tuple, k, visited)
        s.fire_k_tilde(k, visited)
        s.promote()
        out[k] = frozenset(s.res)
        if _debug_invariants:
            s.check_invariants(k)
    return SearchResult(res=out, stats=stats)
