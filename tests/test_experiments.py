"""Tests for the experiment harness (runner, sweeps, tables)."""
import pytest

from repro.core.bounds import GlobalSpec, PropSpec
from repro.experiments import (
    DEFAULTS,
    format_rows,
    result_size_census,
    sweep_krange,
    sweep_num_attrs,
    sweep_tau,
)
from repro.experiments.runner import run_algorithm
from repro.experiments.shapley_exp import pick_group
from repro.experiments.sweeps import Defaults, examined_gain

SMALL = Defaults(tau=3, k_min=3, k_max=10, alpha=0.8)


class TestRunner:
    def test_baseline_and_optimized_agree(self, paper_ds):
        spec = GlobalSpec({3: 2})
        runs = {
            a: run_algorithm(
                paper_ds.pandas_store(), "global", a, spec, 3, 3, 10
            )
            for a in ("baseline", "optimized")
        }
        assert runs["baseline"].res == runs["optimized"].res
        assert not runs["baseline"].timed_out
        assert runs["optimized"].examined < runs["baseline"].examined
        assert runs["baseline"].groups_per_k.keys() == set(range(3, 11))

    def test_timeout_marks_outcome(self, paper_ds):
        from repro.datasets.hardness import hardness_construction

        store = hardness_construction(14).pandas_store()
        out = run_algorithm(
            store, "global", "baseline", GlobalSpec({14: 8}), 1, 14, 14,
            timeout_s=0.0,
        )
        assert out.timed_out
        assert out.res is None

    @pytest.mark.parametrize(
        "tau, k_min, k_max, bad",
        [
            (0, 3, 10, "tau"),
            (3, 0, 10, "k_min"),
            (3, 11, 10, "k_min"),
            (3, 3, 17, "k_max"),
        ],
    )
    def test_bad_parameters_rejected(self, paper_ds, tau, k_min, k_max, bad):
        """The running example has n = 16 tuples."""
        with pytest.raises(ValueError, match=bad):
            run_algorithm(
                paper_ds.pandas_store(), "global", "baseline",
                GlobalSpec({3: 2}), tau, k_min, k_max,
            )

    @pytest.mark.parametrize("algo", ["baseline", "optimized"])
    @pytest.mark.parametrize(
        "problem, spec", [("global", PropSpec(0.8)), ("prop", GlobalSpec({3: 2}))]
    )
    def test_spec_must_match_problem(self, paper_ds, problem, spec, algo):
        with pytest.raises(ValueError, match="problem"):
            run_algorithm(paper_ds.pandas_store(), problem, algo, spec, 3, 3, 10)


class TestSweeps:
    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_num_attrs(self, paper_ds_spark, problem):
        rows = sweep_num_attrs(
            paper_ds_spark, problem, [2, 3, 4], SMALL, None
        )
        assert [r["n_attrs"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert r["baseline"].res == r["optimized"].res

    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_tau(self, paper_ds_spark, problem):
        rows = sweep_tau(
            paper_ds_spark, problem, [2, 4, 8], SMALL, None
        )
        for r in rows:
            assert r["baseline"].res == r["optimized"].res
        # Larger τ_s shrinks the search space (paper Fig. 6–7 trend).
        assert (
            rows[0]["baseline"].examined >= rows[-1]["baseline"].examined
        )

    @pytest.mark.parametrize("problem", ["global", "prop"])
    def test_sweep_krange(self, paper_ds_spark, problem):
        rows = sweep_krange(
            paper_ds_spark, problem, [8, 12, 16], SMALL, None
        )
        for r in rows:
            assert r["baseline"].res == r["optimized"].res
        assert rows[-1]["baseline"].examined > rows[0]["baseline"].examined

    def test_examined_gain_positive_on_wide_range(self, paper_ds_spark):
        rows = sweep_krange(
            paper_ds_spark, "global", [16], SMALL, None
        )
        gain = examined_gain(rows[0])
        assert gain is not None and 0 < gain < 1

    def test_result_size_census(self, paper_ds_spark):
        rows = sweep_tau(
            paper_ds_spark, "global", [2, 4], SMALL, None
        )
        census = result_size_census(rows)
        assert census["result_sets"] > 0
        assert 0.0 <= census["fraction"] <= 1.0
        # Paper-example results are tiny, all below 100 groups.
        assert census["fraction"] == 1.0


class TestPickGroup:
    @pytest.mark.parametrize(
        "preferred, expected",
        [("School", ((1, "GP"),)), ("Failures", ((0, "F"),))],
    )
    def test_pick_is_independent_of_candidate_order(
        self, paper_ds, preferred, expected
    ):
        """{Gender=F}, {School=GP} and {School=MS} all have 8 tuples, so
        only the sorted-pattern tie-break decides."""
        store = paper_ds.pandas_store()
        candidates = [((1, "MS"),), ((0, "F"),), ((1, "GP"),), ((0, "F"), (2, "R"))]
        for order in (candidates, candidates[::-1]):
            assert pick_group(order, store, preferred) == expected


class TestTables:
    def test_format_rows_markdown(self, paper_ds_spark):
        rows = sweep_tau(paper_ds_spark, "global", [2], SMALL, None)
        md = format_rows(rows, "tau")
        assert md.startswith("| tau |")
        assert "| 2 |" in md
        assert md.count("\n") == 2  # header + separator + one data row

    def test_defaults_match_paper(self):
        assert DEFAULTS.tau == 50
        assert (DEFAULTS.k_min, DEFAULTS.k_max) == (10, 49)
        assert DEFAULTS.alpha == 0.8
        spec = DEFAULTS.spec("global")
        assert [spec.L(k) for k in (10, 20, 30, 40)] == [10, 20, 30, 40]
