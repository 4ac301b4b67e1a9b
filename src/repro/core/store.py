"""Pattern-statistics stores: the data substrate of the search algorithms.

For a pattern ``p`` a store gives ``s_D(p)`` and the sorted rank positions
of the tuples that satisfy it. Because the sorted rank list is kept,
``s_{R^k(D)}(p)`` for *any* ``k`` is a binary search — one statistic serves
the entire k-range and every algorithm, so runtime differences between
ITERTD and the optimized algorithms reflect patterns examined (the paper's
metric), not redundant counting.

:class:`BaseStatsStore` holds what every store shares: the rank-ordered
rows behind ``row_at_rank``, the sorted active ``domains``, the memos of
``stat`` (per pattern) and ``group`` (per attribute set), and the
``jobs``/``lookups``/``agg_seconds`` counters. A store supplies only its
rows, its domains and how it counts, in two implementations that share no
counting code:

* :class:`SparkStatsStore` — the store every experiment, job and benchmark
  detection runs on. Building it runs one Spark query: the pattern
  attributes cast to string, plus ``rank``, ordered by rank and collected
  to the driver. Every statistic is then answered on the driver by
  vertical bitmap counting, as in Eclat (Zaki, "Scalable algorithms for
  association mining", TKDE 2000): one boolean mask per (attribute, value)
  in rank order, and a pattern's tuples are the AND of its pairs' masks.
  The masks take ``n·Σ|dom|`` bytes (one byte per tuple and value: about
  10 KB for Student at 5 attributes, 340 KB for COMPAS at 16); the
  per-pattern memo of rank lists is larger.
* :class:`PandasStatsStore` — a pandas ``groupby`` per attribute set, and a
  pattern is a lookup in its group. It is the independent reference that
  the Spark store is tested against (Spark ≡ pandas ≡ DuckDB, via
  ``repro.oracle``) and that the benchmark's brute-force oracle reads.

Null policy: a null pattern-attribute value matches no pattern, so it is in
no domain and no group (pandas ``groupby`` drops null keys; the masks skip
them), and ``row_at_rank`` gives ``None`` for it.
"""
from __future__ import annotations

import time
from bisect import bisect_right
from contextlib import contextmanager
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
    """Rows, domains, memos and counters shared by every store.

    A subclass hands its rank-ordered rows and sorted domains to this
    constructor and implements ``_count`` (one pattern) and ``_aggregate``
    (every value combination of one attribute set).
    """

    def __init__(
        self,
        attr_names: Sequence[str],
        rows: list[tuple[str | None, ...]],
        domains: list[list[str]],
    ):
        self.attr_names = list(attr_names)
        self.n = len(rows)
        #: Active domain of each attribute, sorted for determinism.
        self.domains = domains
        self._rows = rows
        self._stats: dict[Pattern, PatternStat | None] = {
            (): PatternStat(self.n, tuple(range(1, self.n + 1)))
        }
        self._groups: dict[tuple[int, ...], GroupStats] = {}
        self.jobs = 0  # statistics computed on a memo miss
        self.lookups = 0  # stat() calls served
        #: Wall-clock seconds spent computing statistics. The experiment
        #: tables report search time = total − agg time, isolating the
        #: paper's algorithmic cost from the (shared) counting substrate.
        self.agg_seconds = 0.0

    # -- to be provided by subclasses -------------------------------------
    def _count(self, p: Pattern) -> PatternStat | None:
        raise NotImplementedError

    def _aggregate(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        raise NotImplementedError

    @contextmanager
    def _job(self):
        """Count the enclosed statistic computation as one job."""
        self.jobs += 1
        start = time.monotonic()
        try:
            yield
        finally:
            self.agg_seconds += time.monotonic() - start

    # -- public API --------------------------------------------------------
    def group(self, attr_idxs: tuple[int, ...]) -> GroupStats:
        """Stats for every existing value combination over ``attr_idxs``.

        Combinations absent from the data (size 0) are not present — they are
        below any positive size threshold, so the search never needs them.
        """
        g = self._groups.get(attr_idxs)
        if g is None:
            with self._job():
                g = self._groups[attr_idxs] = self._aggregate(attr_idxs)
        return g

    def stat(self, p: Pattern) -> PatternStat | None:
        """Stats of one pattern (``None`` if no tuple satisfies it),
        memoised per pattern."""
        self.lookups += 1
        try:
            return self._stats[p]
        except KeyError:
            st = self._stats[p] = self._count(p)
            return st

    def row_at_rank(self, k: int) -> tuple[str | None, ...]:
        """Pattern-attribute values of ``R(D)[k]``, the k-th ranked tuple
        (needed by the incremental algorithms)."""
        return self._rows[k - 1]


class PandasStatsStore(BaseStatsStore):
    """Pattern statistics from a pandas ``groupby`` per attribute set: the
    reference for the store tests and the benchmark oracle."""

    def __init__(
        self,
        pdf: pd.DataFrame,
        attr_names: Sequence[str],
        rank_col: str = "rank",
    ):
        self._pdf = pdf.reset_index(drop=True)
        self.rank_col = rank_col
        ordered = self._pdf.sort_values(rank_col)[list(attr_names)]
        rows = [
            tuple(None if pd.isna(v) else str(v) for v in row)
            for row in ordered.itertuples(index=False)
        ]
        domains = [
            sorted(self._pdf[a].dropna().map(str).unique()) for a in attr_names
        ]
        super().__init__(attr_names, rows, domains)

    def _count(self, p: Pattern) -> PatternStat | None:
        return self.group(attr_indices(p)).get(pattern_values(p))

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


class SparkStatsStore(BaseStatsStore):
    """Pattern statistics from one Spark collect and driver-side bitmaps.

    ``df`` must carry the pattern attributes plus a dense 1-based integer
    ``rank`` column (see ``repro.ranking.rankers.add_rank``). Building the
    store runs :meth:`query` once; a pattern's statistic is then the AND of
    the (attribute, value) masks of its pairs.
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
        rows = [tuple(r)[:-1] for r in rows]
        self._all = np.ones(len(rows), dtype=bool)
        self._masks: list[dict[str, np.ndarray]] = []
        for i in range(len(attr_names)):
            col = np.array([row[i] for row in rows], dtype=object)
            values = {v for v in col if v is not None}
            self._masks.append({v: col == v for v in values})
        super().__init__(attr_names, rows, [sorted(m) for m in self._masks])

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

    def _count(self, p: Pattern) -> PatternStat | None:
        with self._job():
            masks = [self._masks[a].get(v) for a, v in p]
            if any(m is None for m in masks):
                return None
            return self._stat_of(np.logical_and.reduce([self._all, *masks]))

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
