"""Correctness grid: ITERTD and PROPBOUNDS must equal the brute-force
reference under proportional bounds (Proposition 4.8), with the internal
invariants of the incremental state checked at every k."""
import pytest

from repro.core import brute_force, iter_td, prop_bounds
from repro.core.bounds import PropSpec
from tests.helpers import (
    MESSY_SEEDS,
    make_random_ranked,
    random_params,
    store_of,
)

SEEDS = list(range(40))


@pytest.mark.parametrize("seed", SEEDS + MESSY_SEEDS)
def test_prop_algorithms_match_brute_force(seed):
    ds = make_random_ranked(seed, messy=seed in MESSY_SEEDS)
    params = random_params(seed, ds.n)
    store = store_of(ds)
    spec = PropSpec(params["alpha"])
    args = (store, spec, params["tau"], params["k_min"], params["k_max"])
    bf = brute_force(*args).res
    it = iter_td(*args).res
    pb = prop_bounds(*args, _debug_invariants=True).res
    assert it == bf, f"ITERTD mismatch (seed={seed}, params={params})"
    assert pb == bf, f"PROPBOUNDS mismatch (seed={seed}, params={params})"


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.0, 1.2])
def test_prop_alpha_sweep_on_paper_example(paper_ds, alpha):
    store = paper_ds.pandas_store()
    spec = PropSpec(alpha)
    args = (store, spec, 3, 3, 12)
    assert prop_bounds(*args, _debug_invariants=True).res == brute_force(*args).res


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_prop_full_range(seed):
    """k from 1 to n: every tuple insertion is exercised."""
    ds = make_random_ranked(seed, n_min=15, n_max=40)
    store = store_of(ds)
    spec = PropSpec(0.8)
    args = (store, spec, 2, 1, ds.n)
    assert prop_bounds(*args, _debug_invariants=True).res == brute_force(*args).res


def test_prop_results_satisfy_definition(paper_ds):
    """Problem 3.2 spelled out on the reported patterns."""
    store = paper_ds.pandas_store()
    spec = PropSpec(0.9)
    res = prop_bounds(store, spec, 4, 4, 10).res
    for k, patterns in res.items():
        for p in patterns:
            st = store.stat(p)
            assert st.size >= 4
            assert spec.violates(st.topk(k), st.size, k, store.n)


def test_prop_tiny_alpha_only_zero_count_patterns(paper_ds):
    """With a tiny α the bound is a tiny positive number, so exactly the
    substantial patterns with *zero* top-k presence violate."""
    store = paper_ds.pandas_store()
    res = prop_bounds(store, PropSpec(1e-9), 1, 2, 10, _debug_invariants=True).res
    for k, patterns in res.items():
        for p in patterns:
            assert store.stat(p).topk(k) == 0
