"""Bound specifications for the two problem definitions.

* :class:`GlobalSpec` — Problem 3.1 (global representation bounds): a
  user-given stepwise lower bound ``L_k``. The paper's default is
  10/20/30/40 stepping at k = 20/30/40.
* :class:`PropSpec` — Problem 3.2 (proportional representation): the bound
  for a pattern ``p`` at position ``k`` is ``α · s_D(p) · k / |D|``.
* :func:`k_tilde` — the minimal ``k`` at which a currently-passing pattern
  becomes violating if its top-k count stays fixed (Section IV-C).

Only the lower-bound side is implemented, matching the paper's evaluation
(Section III: "for ease of presentation ... only the lower bounds").
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence


@dataclass(frozen=True)
class GlobalSpec:
    """Lower bounds for Problem 3.1 as a sorted step function.

    ``steps`` maps a starting ``k`` to the bound that applies from that k on
    (until the next step). E.g. the paper default
    ``{10: 10, 20: 20, 30: 30, 40: 40}``.
    """

    steps: Mapping[int, int]
    _sorted: Sequence[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        items = tuple(sorted(self.steps.items()))
        if not items:
            raise ValueError("at least one bound step is required")
        bounds = [b for _, b in items]
        if bounds != sorted(bounds):
            # Footnote 3: L_k must be non-decreasing in k.
            raise ValueError("lower bounds must be non-decreasing in k")
        object.__setattr__(self, "_sorted", items)

    def L(self, k: int) -> int:
        """The lower bound in force at position ``k``."""
        bound = self._sorted[0][1]
        for start, b in self._sorted:
            if k >= start:
                bound = b
            else:
                break
        return bound

    def violates(self, c: int, size: int, k: int, n: int) -> bool:
        """True iff a top-k count ``c`` is below the bound at ``k``.

        ``size``/``n`` are unused here; the signature is shared with
        :class:`PropSpec` so the search algorithms are spec-agnostic.
        """
        return c < self.L(k)


def paper_default_global() -> GlobalSpec:
    """The paper's default bounds: 10 for k<20, 20 for k<30, 30 for k<40,
    40 for k>=40."""
    return GlobalSpec({10: 10, 20: 20, 30: 30, 40: 40})


@dataclass(frozen=True)
class PropSpec:
    """Proportional lower bound of Problem 3.2: ``α · s_D(p) · k / |D|``."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha!r}"
            )

    def violates(self, c: int, size: int, k: int, n: int) -> bool:
        """True iff ``c < α · size · k / n`` (strict, as in Problem 3.2)."""
        return c < self.alpha * size * k / n


def k_tilde(c: int, size: int, alpha: float, n: int) -> int:
    """Minimal ``k`` with ``c < α · size · k / n`` when ``c`` is held fixed.

    Closed form ``⌊c·n/(α·size)⌋ + 1`` with a float-safety nudge: the strict
    inequality is re-checked with the same expression the search uses, so a
    borderline floating-point rounding cannot desynchronize the two.
    Matches the paper's Example 4.7 (c=2, size=8, α=0.9, n=16 → k̃=5) and
    Example 4.9 (c=3, size=6 → k̃=9).
    """
    if size <= 0 or alpha <= 0:
        raise ValueError("size and alpha must be positive")
    k = math.floor(c * n / (alpha * size)) + 1
    # Nudge down while the previous k already violates, up while k does not.
    while k > 1 and c < alpha * size * (k - 1) / n:
        k -= 1
    while not c < alpha * size * k / n:
        k += 1
    return k
