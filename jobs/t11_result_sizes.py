"""T11 (paper §III in-text): fraction of result sets with fewer than 100
reported groups — the paper observed 97.58% across its runs. We census
every (run, k) result set across the τ_s and k-range sweeps at default
parameters.

Usage: spark-submit jobs/t11_result_sizes.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.experiments import result_size_census, sweep_krange, sweep_tau
from t3_tau_global import ATTR_CAP, FAST_TAUS, TAUS
from t5_krange_global import FAST_GRID, K_GRIDS


def main(
    spark=None,
    fast: bool = False,
    timeout: float = 120.0,
    precomputed_rows: list | None = None,
) -> dict:
    """Census over ``precomputed_rows`` when the orchestrator already ran
    the sweeps (jobs/run_all.py); otherwise runs its own τ_s and k-range
    sweeps."""
    rows = precomputed_rows
    if rows is None:
        spark = spark or get_spark("t11_result_sizes")
        rows = []
        for name, ds in load_datasets(spark, fast).items():
            view = ds.with_attrs(min(ATTR_CAP[name], len(ds.pattern_attrs)))
            for problem in ("global", "prop"):
                rows += sweep_tau(
                    view, problem, FAST_TAUS if fast else TAUS,
                    timeout_s=timeout,
                )
                grid = [
                    k for k in (FAST_GRID if fast else K_GRIDS[name])
                    if k <= ds.n
                ]
                rows += sweep_krange(view, problem, grid, timeout_s=timeout)
    census = result_size_census(rows)
    emit(
        "T11 result-set sizes",
        f"result sets: {census['result_sets']}; "
        f"with < 100 groups: {census['below_threshold']} "
        f"({100 * census['fraction']:.2f}%; paper: 97.58%)",
    )
    return census


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout)
