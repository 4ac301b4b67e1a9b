"""T3 (paper Fig. 6): runtime vs size threshold τ_s, global bounds.

Attribute counts are capped per dataset (the paper likewise capped them at
what the baseline could handle within its timeout).

Usage: spark-submit jobs/t3_tau_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.experiments import format_rows, sweep_tau

TAUS = [10, 25, 50, 75, 100]
FAST_TAUS = [20, 50]
ATTR_CAP = {"student": 10, "compas": 10, "german": 10}


def main(spark=None, fast: bool = False, timeout: float = 120.0, problem: str = "global") -> dict:
    spark = spark or get_spark(f"t_tau_{problem}")
    out = {}
    for name, ds in load_datasets(spark, fast).items():
        view = ds.with_attrs(min(ATTR_CAP[name], len(ds.pattern_attrs)))
        rows = sweep_tau(
            view, problem, FAST_TAUS if fast else TAUS, timeout_s=timeout
        )
        out[name] = rows
        emit(f"{problem} bounds, τ_s sweep — {name}", format_rows(rows, "tau"))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout, problem="global")
