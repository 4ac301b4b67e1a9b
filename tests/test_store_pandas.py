"""Unit tests for the pandas pattern-statistics store (driver-only)."""
import pandas as pd
import pytest

from repro.core.store import PandasStatsStore, PatternStat
from repro.datasets.paper_example import paper_example


@pytest.fixture(scope="module")
def store():
    return PandasStatsStore(
        paper_example().pdf, ["Gender", "School", "Address", "Failures"]
    )


class TestPatternStat:
    def test_topk_bisect(self):
        st = PatternStat(4, (2, 5, 9, 11))
        assert st.topk(1) == 0
        assert st.topk(2) == 1
        assert st.topk(5) == 2
        assert st.topk(100) == 4


class TestStoreBasics:
    def test_n(self, store):
        assert store.n == 16

    def test_root_pattern(self, store):
        st = store.stat(())
        assert st.size == 16
        assert st.ranks == tuple(range(1, 17))

    def test_example_2_3(self, store):
        """s_D({School=GP}) = 8; s_{R^5}({School=GP}) = 1."""
        st = store.stat(((1, "GP"),))
        assert st.size == 8
        assert st.topk(5) == 1

    def test_example_2_4_school_counts_at_5(self, store):
        """Example 2.4: one GP student in the top-5, L=2 violated."""
        assert store.stat(((1, "GP"),)).topk(5) == 1
        assert store.stat(((1, "MS"),)).topk(5) == 4

    def test_two_attr_group(self, store):
        st = store.stat(((1, "MS"), (2, "R")))
        assert st.size == 6  # tuples 1,2,5,9,10,11

    def test_missing_combo_is_none(self, store):
        fresh = PandasStatsStore(
            paper_example().pdf, ["Gender", "School", "Address", "Failures"]
        )
        assert fresh.stat(((0, "X"),)) is None
        assert fresh.stat(((0, "F"), (3, "X"))) is None

    def test_domains_sorted(self, store):
        assert store.domains == [
            ["F", "M"],
            ["GP", "MS"],
            ["R", "U"],
            ["0", "1", "2"],
        ]

    def test_memoization(self):
        s = PandasStatsStore(
            paper_example().pdf, ["Gender", "School", "Address", "Failures"]
        )
        s.group((0,))
        jobs = s.jobs
        s.group((0,))
        s.stat(((0, "F"),))
        assert s.jobs == jobs

    def test_row_at_rank(self, store):
        # Rank 1 is tuple 12: (F, GP, U, 0); rank 5 is tuple 14: (M, MS, U, 1).
        assert store.row_at_rank(1) == ("F", "GP", "U", "0")
        assert store.row_at_rank(5) == ("M", "MS", "U", "1")

    def test_sizes_anti_monotone(self, store):
        """s_D and s_{R^k} never grow when a pattern is specialized."""
        parent = ((0, "F"),)
        child = ((0, "F"), (1, "GP"))
        c, p = store.stat(child), store.stat(parent)
        assert c.size <= p.size
        for k in range(1, 17):
            assert c.topk(k) <= p.topk(k)

    def test_group_sizes_partition_dataset(self, store):
        for attrs in [(0,), (1,), (0, 1), (0, 1, 2, 3)]:
            g = store.group(attrs)
            assert sum(st.size for st in g.values()) == 16

    def test_values_normalized_to_str(self):
        pdf = pd.DataFrame({"A": [1, 1, 2], "rank": [1, 2, 3]})
        s = PandasStatsStore(pdf, ["A"])
        assert s.stat(((0, "1"),)).size == 2
