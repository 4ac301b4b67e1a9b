"""Spark pattern-statistics store: equivalence with the pandas twin and
with the DuckDB oracle (repro.oracle.assert_equivalent)."""
from itertools import combinations, product

import duckdb
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st
from pyspark.sql import functions as F
from pyspark.sql.types import (
    DoubleType, LongType, StringType, StructField, StructType,
)

from repro.core.bounds import PropSpec
from repro.core.prop_bounds import prop_bounds
from repro.core.store import PandasStatsStore, SparkStatsStore
from repro.experiments.runner import run_algorithm
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def stores(paper_ds_spark):
    return paper_ds_spark.pandas_store(), paper_ds_spark.spark_store()


@pytest.mark.parametrize(
    "attrs", [(0,), (1,), (3,), (0, 1), (1, 3), (0, 2, 3), (0, 1, 2, 3)]
)
def test_spark_equals_pandas_groups(stores, attrs):
    """Exact equality of the group dicts, rank arrays included."""
    ps, ss = stores
    assert ss.group(attrs) == ps.group(attrs)


def test_spark_domains_and_n(stores):
    ps, ss = stores
    assert ss.n == ps.n == 16
    assert ss.domains == ps.domains


def test_spark_row_at_rank(stores):
    ps, ss = stores
    for k in (1, 5, 16):
        assert ss.row_at_rank(k) == ps.row_at_rank(k)


def test_group_counts_against_duckdb(paper_ds_spark):
    """The store's one Spark query, and the group counts served from it,
    checked by the DuckDB oracle. The query's rows come back in rank order,
    so the store's rows must equal DuckDB's ``ORDER BY rank`` row for row."""
    ds = paper_ds_spark
    attrs = ds.pattern_attrs
    cols = ", ".join(f"CAST({a} AS VARCHAR) AS {a}" for a in attrs)
    sql = f"SELECT {cols}, CAST(rank AS BIGINT) AS rank FROM students"
    query = SparkStatsStore.query(ds.df, attrs)
    assert_equivalent(query, sql + " ORDER BY rank", students=ds.pdf)

    con = duckdb.connect()
    try:
        con.register("students", ds.pdf)
        ordered = con.execute(sql + " ORDER BY rank").fetchall()
        counts = con.execute(
            "SELECT Gender, School, count(*), min(rank), sum(rank) "
            "FROM students GROUP BY Gender, School"
        ).fetchall()
    finally:
        con.close()
    store = ds.spark_store()
    assert [store.row_at_rank(k) for k in range(1, store.n + 1)] == [
        row[:-1] for row in ordered
    ]
    group = store.group((0, 1))
    assert {
        key: (st.size, st.ranks[0], sum(st.ranks)) for key, st in group.items()
    } == {(g, s): (c, lo, total) for g, s, c, lo, total in counts}


def test_topk_counts_against_duckdb(paper_ds_spark):
    """s_{R^5}(p) for every single-attribute pattern vs a DuckDB filter."""
    df = paper_ds_spark.df
    agg = (
        df.where(F.col("rank") <= 5)
        .groupBy("School")
        .agg(F.count(F.lit(1)).alias("topk"))
    )
    assert_equivalent(
        agg,
        "SELECT School, count(*) AS topk FROM students WHERE rank <= 5 GROUP BY School",
        students=paper_ds_spark.pdf,
    )
    store = paper_ds_spark.spark_store()
    for row in agg.collect():
        assert store.stat(((1, str(row["School"])),)).topk(5) == row["topk"]


def test_spark_store_on_synthetic_dataset(student_ds):
    """Spark vs pandas store on a real-sized dataset (395 rows): every
    attribute subset of up to three attributes."""
    ps, ss = student_ds.pandas_store(), student_ds.spark_store()
    m = len(student_ds.pattern_attrs)
    for r in (1, 2, 3):
        for attrs in combinations(range(m), r):
            assert ss.group(attrs) == ps.group(attrs), attrs
    assert ss.domains == ps.domains


def test_jobs_counter_tracks_cache_misses(paper_ds_spark):
    ss = paper_ds_spark.spark_store()
    assert ss.jobs == 0
    ss.group((0,))
    ss.group((0,))
    ss.group((0, 1))
    assert ss.jobs == 2


def test_stat_memoised_per_pattern(paper_ds_spark):
    ss = paper_ds_spark.spark_store()
    p = ((0, "F"), (2, "U"))
    assert ss.stat(p) == paper_ds_spark.pandas_store().stat(p)
    assert ss.stat(p) is ss.stat(p)
    assert (ss.jobs, ss.lookups) == (1, 3)
    assert ss.stat(((0, "X"),)) is None


def test_detection_runs_a_constant_number_of_spark_jobs(spark, student_ds):
    """A full PROPBOUNDS detection on the Spark store starts the same
    number of Spark jobs, at most 2, whatever the number of attributes:
    the store's one query is all that runs in Spark."""
    sc = spark.sparkContext
    jobs = []
    for m in (3, 6):
        group = f"store-jobs-{m}"
        sc.setJobGroup(group, "one detection")
        try:
            store = student_ds.with_attrs(m).spark_store()
            prop_bounds(store, PropSpec(0.8), 20, 10, 49)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
    assert jobs[0] == jobs[1] <= 2, jobs


def test_nulls_match_no_pattern(spark):
    """A null pattern-attribute value is in no domain, group or pattern, on
    both stores (no phantom ``'None'`` value)."""
    pdf = pd.DataFrame(
        {
            "a": ["x", None, "y", "x", None, "y", "x", "y", None, "x"],
            "b": ["p", "q", None, "p", "q", "q", None, "p", "p", "q"],
            "rank": list(range(1, 11)),
        }
    )
    df = spark.createDataFrame(pdf)
    ps = PandasStatsStore(pdf, ["a", "b"])
    ss = SparkStatsStore(df, ["a", "b"])
    assert ss.domains == ps.domains == [["x", "y"], ["p", "q"]]
    for attrs in [(0,), (1,), (0, 1)]:
        assert ss.group(attrs) == ps.group(attrs)
        for vals in ps.group(attrs):
            p = tuple(zip(attrs, vals))
            assert ss.stat(p) == ps.stat(p)
    assert ss.stat(((0, "None"),)) is None
    for algo in ("baseline", "optimized"):
        out = run_algorithm(ss, "prop", algo, PropSpec(0.8), 2, 1, 10)
        found = {p for res in out.res.values() for p in res}
        assert found
        assert all(v != "None" for p in found for _, v in p)


def test_rank_must_be_dense(spark):
    pdf = pd.DataFrame({"a": ["x", "y", "x"], "rank": [1, 2, 4]})
    with pytest.raises(ValueError, match="rank"):
        SparkStatsStore(spark.createDataFrame(pdf), ["a"])


_MESSY_SCHEMA = StructType([
    StructField("s", StringType()),
    StructField("one", StringType()),
    StructField("f", DoubleType()),
    StructField("rank", LongType()),
])


@st.composite
def _messy_tables(draw):
    """A small ranked table with nulls: a string column, a single-valued
    column and a float column. NaN is the float column's null; with Arrow
    on, as in the session fixture, it reaches Spark as a null."""
    n = draw(st.integers(1, 12))

    def col(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    return pd.DataFrame({
        "s": col(["a", "b", "c", None]),
        "one": col(["x", None]),
        "f": col([0.5, 1.0, 2.25, -3.0, float("nan")]),
        "rank": draw(st.permutations(range(1, n + 1))),
    })


@settings(max_examples=20, deadline=None)
@given(pdf=_messy_tables())
def test_spark_equals_pandas_on_messy_tables(spark, pdf):
    """Spark-sourced ≡ pandas-sourced: ``n``, domains, every row and the
    statistic of every pattern over up to two attributes."""
    attrs = ["s", "one", "f"]
    ps = PandasStatsStore(pdf, attrs)
    ss = SparkStatsStore(spark.createDataFrame(pdf, _MESSY_SCHEMA), attrs)
    assert ss.n == ps.n == len(pdf)
    assert ss.domains == ps.domains
    for k in range(1, ps.n + 1):
        assert ss.row_at_rank(k) == ps.row_at_rank(k), k
    for r in (1, 2):
        for idxs in combinations(range(len(attrs)), r):
            for vals in product(*(ps.domains[i] + ["?"] for i in idxs)):
                p = tuple(zip(idxs, vals))
                assert ss.stat(p) == ps.stat(p), p
