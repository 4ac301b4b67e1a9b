"""Pattern-statistics stores: the data substrate of the search algorithms.

For a pattern ``p`` a store gives ``s_D(p)`` and the sorted rank positions
of the tuples that satisfy it. Because the sorted rank list is kept,
``s_{R^k(D)}(p)`` for *any* ``k`` is a binary search — one statistic serves
the entire k-range and every algorithm, so runtime differences between
ITERTD and the optimized algorithms reflect patterns examined (the paper's
metric), not redundant counting.

Two implementations that share no counting code:

* :class:`SparkStatsStore` — the production path. Building it runs one Spark
  query: the pattern attributes cast to string, plus ``rank``, ordered by
  rank and collected to the driver. Every statistic is then answered on the
  driver by vertical bitmap counting, as in Eclat (Zaki, "Scalable
  algorithms for association mining", TKDE 2000): one boolean mask per
  (attribute, value) in rank order, and a pattern's tuples are the AND of
  its pairs' masks. The masks take ``n·Σ|dom|`` bytes (one byte per
  tuple and value: about 10 KB for Student at 5 attributes, 340 KB for
  COMPAS at 16); the per-pattern memo of rank lists is larger.
* :class:`PandasStatsStore` — a pandas ``groupby`` per attribute set over a
  pandas mirror; the independent reference the Spark store is tested
  against. A dedicated test module asserts Spark ≡ pandas ≡ DuckDB (via
  ``repro.oracle``).

Null policy: a null pattern-attribute value matches no pattern, so it is in
no domain and no group (pandas ``groupby`` drops null keys; the masks skip
them).
"""
from __future__ import annotations

import time
from bisect import bisect_right
from typing import NamedTuple, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pattern import Pattern, attr_indices, values as pattern_values


class PatternStat(NamedTuple):
    """Statistics of one pattern: its size in D and the sorted (1-based)
    rank positions of the tuples that satisfy it."""

    size: int
    ranks: tuple[int, ...]

    def topk(self, k: int) -> int:
        """``s_{R^k(D)}(p)`` — satisfying tuples among the top-k."""
        return bisect_right(self.ranks, k)


GroupStats = dict[tuple[str, ...], PatternStat]


class BaseStatsStore:
    """Shared memoisation, domain discovery and lookup logic."""

    def __init__(self, attr_names: Sequence[str], rank_col: str = "rank"):
        self.attr_names = list(attr_names)
        self.rank_col = rank_col
        self._groups: dict[tuple[int, ...], GroupStats] = {}
        self._row_values: list[tuple[str, ...]] | None = None
        self.jobs = 0  # statistics computed on a memo miss
        self.lookups = 0  # stat() calls served
        #: Wall-clock seconds spent computing statistics. The experiment
        #: tables report search time = total − agg time, isolating the
        #: paper's algorithmic cost from the (shared) counting substrate.
        self.agg_seconds = 0.0
        self.n = self._count_rows()
        self._domains: list[list[str]] | None = None

    # -- to be provided by subclasses -------------------------------------
    def _count_rows(self) -> int:
        raise NotImplementedError

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        raise NotImplementedError

    def _collect_rows(self) -> list[tuple[str, ...]]:
        """All tuples' pattern-attribute values, ordered by rank (1..n)."""
        raise NotImplementedError

    # -- public API --------------------------------------------------------
    @property
    def domains(self) -> list[list[str]]:
        """Active domain of each attribute, sorted for determinism."""
        if self._domains is None:
            doms = []
            for i in range(len(self.attr_names)):
                doms.append(sorted(v[0] for v in self.group((i,))))
            self._domains = doms
        return self._domains

    def group(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        """Stats for every existing value combination over ``attr_idxs``.

        Combinations absent from the data (size 0) are not present — they are
        below any positive size threshold, so the search never needs them.
        """
        g = self._groups.get(attr_idxs)
        if g is None:
            self.jobs += 1
            start = time.monotonic()
            g = self._aggregate(attr_idxs)
            self.agg_seconds += time.monotonic() - start
            self._groups[attr_idxs] = g
        return g

    def stat(self, p: Pattern) -> PatternStat | None:
        """Stats of one pattern (``None`` if no tuple satisfies it)."""
        self.lookups += 1
        if not p:
            return PatternStat(self.n, tuple(range(1, self.n + 1)))
        return self.group(attr_indices(p)).get(pattern_values(p))

    def size(self, p: Pattern) -> int:
        s = self.stat(p)
        return 0 if s is None else s.size

    def topk_count(self, p: Pattern, k: int) -> int:
        s = self.stat(p)
        return 0 if s is None else s.topk(k)

    def row_at_rank(self, k: int) -> tuple[str, ...]:
        """Pattern-attribute values of ``R(D)[k]``, the k-th ranked tuple
        (needed by the incremental algorithms)."""
        if self._row_values is None:
            self._row_values = self._collect_rows()
        return self._row_values[k - 1]


class PandasStatsStore(BaseStatsStore):
    """Pattern statistics over a pandas DataFrame (tests / brute force)."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        self._pdf = pdf.reset_index(drop=True)
        super().__init__(attr_names, rank_col)

    def _count_rows(self) -> int:
        return len(self._pdf)

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        cols = [self.attr_names[i] for i in attr_idxs]
        out: GroupStats = {}
        grouped = self._pdf.groupby(cols, sort=False)[self.rank_col]
        for key, ranks in grouped:
            key_t = key if isinstance(key, tuple) else (key,)
            key_t = tuple(str(v) for v in key_t)
            sorted_ranks = tuple(sorted(int(r) for r in ranks))
            out[key_t] = PatternStat(len(sorted_ranks), sorted_ranks)
        return out

    def _collect_rows(self) -> list[tuple[str, ...]]:
        ordered = self._pdf.sort_values(self.rank_col)
        return [
            tuple(str(v) for v in row)
            for row in ordered[self.attr_names].itertuples(index=False)
        ]


class SparkStatsStore(BaseStatsStore):
    """Pattern statistics from one Spark collect and driver-side bitmaps.

    ``df`` must carry the pattern attributes plus a dense 1-based integer
    ``rank`` column (see ``repro.ranking.rankers.add_rank``). Building the
    store runs :meth:`query` once; :meth:`stat` is then the AND of the
    (attribute, value) masks of the pattern's pairs, memoised per pattern.
    ``row_at_rank`` serves the collected rows, with ``None`` for a null.
    """

    def __init__(
        self,
        df: DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        rows = self.query(df, attr_names, rank_col).collect()
        if [r[rank_col] for r in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{rank_col} must be a dense 1..n column")
        self._rows = [tuple(r)[:-1] for r in rows]
        super().__init__(attr_names, rank_col)
        self._stats: dict[Pattern, PatternStat | None] = {}
        self._all = np.ones(self.n, dtype=bool)
        self._masks: list[dict[str, np.ndarray]] = []
        for i in range(len(self.attr_names)):
            col = np.array([row[i] for row in self._rows], dtype=object)
            values = {v for v in col if v is not None}
            self._masks.append({v: col == v for v in values})
        self._domains = [sorted(m) for m in self._masks]

    @staticmethod
    def query(
        df: DataFrame, attr_names: Sequence[str], rank_col: str = "rank"
    ) -> DataFrame:
        """The store's one Spark query: the string-cast pattern attributes
        and the rank of every tuple, in rank order."""
        return df.select(
            *[F.col(a).cast("string").alias(a) for a in attr_names],
            F.col(rank_col).cast("long").alias(rank_col),
        ).orderBy(rank_col)

    def _count_rows(self) -> int:
        return len(self._rows)

    def _collect_rows(self) -> list[tuple[str, ...]]:
        return self._rows

    def stat(self, p: Pattern) -> PatternStat | None:
        self.lookups += 1
        try:
            return self._stats[p]
        except KeyError:
            pass
        self.jobs += 1
        start = time.monotonic()
        masks = [self._masks[a].get(v) for a, v in p]
        if any(m is None for m in masks):
            st = None
        else:
            st = self._stat_of(np.logical_and.reduce([self._all, *masks]))
        self._stats[p] = st
        self.agg_seconds += time.monotonic() - start
        return st

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        """Every non-empty value combination, one attribute at a time."""
        level = {(): self._all}
        for a in attr_idxs:
            level = {
                vals + (v,): both
                for vals, mask in level.items()
                for v, m in self._masks[a].items()
                if (both := mask & m).any()
            }
        return {vals: self._stat_of(mask) for vals, mask in level.items()}

    @staticmethod
    def _stat_of(mask: np.ndarray) -> PatternStat | None:
        ranks = np.flatnonzero(mask) + 1
        if not len(ranks):
            return None
        return PatternStat(len(ranks), tuple(ranks.tolist()))
