"""T1 (paper Fig. 4): runtime vs number of attributes, global bounds.

Usage: spark-submit jobs/t1_attrs_global.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.experiments import format_rows, sweep_num_attrs

ATTR_GRIDS = {
    "student": [3, 6, 9, 12, 15],
    "compas": [3, 6, 9, 12, 16],
    "german": [3, 6, 9, 12, 15, 20],
}
FAST_GRID = [3, 4]


def main(spark=None, fast: bool = False, timeout: float = 120.0) -> dict:
    spark = spark or get_spark("t1_attrs_global")
    out = {}
    for name, ds in load_datasets(spark, fast).items():
        grid = FAST_GRID if fast else ATTR_GRIDS[name]
        rows = sweep_num_attrs(
            ds, "global", grid, timeout_s=timeout
        )
        out[name] = rows
        emit(f"T1 global bounds — {name}", format_rows(rows, "n_attrs"))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout)
