"""Tests of the synthetic dataset substitutes: schema, marginals,
ranking consistency and determinism (see DESIGN.md §3)."""
import pandas as pd
import pytest

from repro.core.bounds import PropSpec
from repro.datasets import compas, german_credit, student
from repro.datasets.base import RankedDataset, bucketize


class TestBucketize:
    def test_labels_and_edges(self):
        out = bucketize([1, 5, 10, 20], [4, 12], ["low", "mid", "high"])
        assert out.tolist() == ["low", "mid", "mid", "high"]

    def test_edge_values_go_left(self):
        assert bucketize([4], [4], ["a", "b"]).tolist() == ["a"]

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            bucketize([1], [2], ["only-one"])


class TestRankedDataset:
    def test_rank_must_be_dense(self):
        pdf = pd.DataFrame({"A": ["x", "y"], "rank": [1, 3]})
        with pytest.raises(ValueError):
            RankedDataset(name="bad", pdf=pdf, pattern_attrs=["A"])

    def test_with_attrs_slices_prefix(self, student_ds):
        view = student_ds.with_attrs(4)
        assert view.pattern_attrs == ["school", "sex", "age", "address"]
        assert view.n == student_ds.n
        assert set(view.numeric_cols) <= set(view.pattern_attrs)


def _check_common(ds, expected_n, expected_attrs):
    assert ds.n == expected_n
    assert len(ds.pattern_attrs) == expected_attrs
    ranks = sorted(ds.pdf["rank"].tolist())
    assert ranks == list(range(1, expected_n + 1))
    for a in ds.pattern_attrs:
        assert ds.pdf[a].map(lambda v: isinstance(v, str)).all(), a
        assert 2 <= ds.pdf[a].nunique() <= 10, a
    assert set(ds.numeric_cols) <= set(ds.pattern_attrs)
    for col in ds.numeric_cols.values():
        pd.to_numeric(ds.pdf[col])  # must be coercible


class TestStudent:
    def test_shape(self, student_ds):
        _check_common(student_ds, 395, 33)

    def test_ranked_by_final_grade(self, student_ds):
        """G3 must be non-increasing along the ranking (the paper's
        Student ranker uses G3 only)."""
        ordered = student_ds.pdf.sort_values("rank")["G3_num"].to_numpy()
        assert (ordered[:-1] >= ordered[1:]).all()

    def test_marginals_near_uci(self, student_ds):
        vc = student_ds.pdf["school"].value_counts()
        assert vc["GP"] > 300 and vc["MS"] < 70
        vc = student_ds.pdf["address"].value_counts()
        assert vc["U"] > vc["R"]

    def test_grades_correlated(self, student_ds):
        pdf = student_ds.pdf
        assert pdf["G1_num"].corr(pdf["G3_num"]) > 0.8
        assert pdf["G2_num"].corr(pdf["G3_num"]) > 0.8

    def test_deterministic(self, spark, student_ds):
        again = student(spark, n=395, seed=42)
        pd.testing.assert_frame_equal(again.pdf, student_ds.pdf)

    def test_case_study_groups_emerge(self, student_ds):
        """§VI-D preconditions: females and rural students must be
        under-represented in the top-10 relative to α=0.8 proportionality."""
        pdf = student_ds.pdf
        top10 = pdf[pdf["rank"] <= 10]
        spec = PropSpec(0.8)
        for attr, value in (("sex", "F"), ("address", "R")):
            c = int((top10[attr] == value).sum())
            size = int((pdf[attr] == value).sum())
            assert spec.violates(c, size, 10, len(pdf)), attr


class TestCompas:
    def test_shape(self, compas_ds):
        _check_common(compas_ds, 2000, 16)

    def test_score_monotone_with_rank(self, compas_ds):
        ordered = compas_ds.pdf.sort_values("rank")["score"].to_numpy()
        assert (ordered[:-1] >= ordered[1:]).all()

    def test_sex_marginal(self, compas_ds):
        vc = compas_ds.pdf["sex"].value_counts(normalize=True)
        assert 0.7 < vc["Male"] < 0.9

    def test_priors_grow_with_age(self, compas_ds):
        pdf = compas_ds.pdf
        assert pdf["age_num"].corr(pdf["priors_num"]) > 0.2

    def test_deterministic(self, spark, compas_ds):
        again = compas(spark, n=2000, seed=7)
        pd.testing.assert_frame_equal(again.pdf, compas_ds.pdf)

    def test_full_size_default(self, spark):
        ds = compas(spark, n=6889, seed=7)
        assert ds.n == 6889


class TestGerman:
    def test_shape(self, german_ds):
        _check_common(german_ds, 1000, 20)

    def test_ranked_by_creditworthiness(self, german_ds):
        ordered = german_ds.pdf.sort_values("rank")["creditworthiness"].to_numpy()
        assert (ordered[:-1] >= ordered[1:]).all()

    def test_hidden_scorer_attributes_matter(self, german_ds):
        """The scorer's inputs must correlate with the score (ground truth
        for the Shapley analysis of Fig. 10c)."""
        pdf = german_ds.pdf
        assert pdf["creditworthiness"].corr(pdf["acct_ord_num"]) > 0.3
        assert pdf["creditworthiness"].corr(pdf["residence_num"]) > 0.2
        assert pdf["creditworthiness"].corr(pdf["duration_num"]) < -0.2

    def test_deterministic(self, spark, german_ds):
        again = german_credit(spark, n=1000, seed=11)
        pd.testing.assert_frame_equal(again.pdf, german_ds.pdf)
