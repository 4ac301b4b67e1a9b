"""Unit tests for bound specs and the k̃ computation (Section IV-C)."""
import pytest

from repro.core.bounds import GlobalSpec, PropSpec, k_tilde, paper_default_global


class TestGlobalSpec:
    def test_step_function(self):
        spec = GlobalSpec({10: 10, 20: 20, 30: 30, 40: 40})
        assert spec.L(10) == 10
        assert spec.L(19) == 10
        assert spec.L(20) == 20
        assert spec.L(39) == 30
        assert spec.L(40) == 40
        assert spec.L(1000) == 40

    def test_below_first_step_uses_first_bound(self):
        spec = GlobalSpec({10: 5})
        assert spec.L(3) == 5

    def test_paper_default(self):
        spec = paper_default_global()
        assert [spec.L(k) for k in (10, 25, 35, 49)] == [10, 20, 30, 40]

    def test_violates_is_strict_less_than(self):
        spec = GlobalSpec({1: 5})
        assert spec.violates(4, 100, 1, 1000)
        assert not spec.violates(5, 100, 1, 1000)

    def test_decreasing_bounds_rejected(self):
        """Footnote 3: L_k must be non-decreasing."""
        with pytest.raises(ValueError):
            GlobalSpec({10: 20, 20: 10})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GlobalSpec({})


class TestPropSpec:
    def test_violates_formula(self):
        spec = PropSpec(0.8)
        # bound = 0.8 * 100 * 10 / 1000 = 0.8
        assert spec.violates(0, 100, 10, 1000)
        assert not spec.violates(1, 100, 10, 1000)

    def test_example_2_5_proportionality(self):
        """Example 2.5: 8 of 16 students per school → proportional top-5
        share is 2.5; with α=1 a count of 2 violates, 3 does not."""
        spec = PropSpec(1.0)
        assert spec.violates(2, 8, 5, 16)
        assert not spec.violates(3, 8, 5, 16)

    @pytest.mark.parametrize("alpha", [0, -0.5, float("nan"), float("inf")])
    def test_degenerate_alpha_rejected(self, alpha):
        """Every algorithm sees the same named error, before any search."""
        with pytest.raises(ValueError, match="alpha"):
            PropSpec(alpha)


class TestKTilde:
    def test_paper_example_4_7(self):
        """{Gender=F}: c=2, size=8, α=0.9, n=16 → k̃=5."""
        assert k_tilde(2, 8, 0.9, 16) == 5

    def test_paper_example_4_9_values(self):
        assert k_tilde(3, 8, 0.9, 16) == 7  # {School=MS}, {Address=R}
        assert k_tilde(3, 6, 0.9, 16) == 9  # {School=MS, Address=R}

    @pytest.mark.parametrize("c", range(0, 12))
    @pytest.mark.parametrize("size", [1, 3, 8, 20])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.8, 0.9, 1.0, 1.3])
    def test_k_tilde_is_minimal_violating_k(self, c, size, alpha):
        """k̃ is the *first* k at which the fixed count violates."""
        n = 40
        spec = PropSpec(alpha)
        kt = k_tilde(c, size, alpha, n)
        assert spec.violates(c, size, kt, n)
        if kt > 1:
            assert not spec.violates(c, size, kt - 1, n)

    def test_exact_integer_boundary(self):
        """When c·n/(α·size) is an exact integer K, the bound equals c at
        K (not violating, strict <), so k̃ = K+1."""
        # c=2, size=4, alpha=1, n=10 → c*n/(alpha*size) = 5 exactly.
        assert k_tilde(2, 4, 1.0, 10) == 6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            k_tilde(1, 0, 0.8, 10)
        with pytest.raises(ValueError):
            k_tilde(1, 5, 0.0, 10)
