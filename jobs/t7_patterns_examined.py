"""T7 (paper §VI-B in-text): patterns-examined gain of the optimized
algorithms over ITERTD at the default parameters, per dataset and problem.

Paper values — global: COMPAS 39.35%, Student 56.87%, German 29.27%;
proportional: 39.60%, 20.49%, 56.83%. The paper computed the gain over its
widest k-range sweep; we report both the default range [10,49] and the wide
range of T5/T6.

Usage: spark-submit jobs/t7_patterns_examined.py [--fast] [--timeout S]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.experiments import DEFAULTS, sweep_krange
from repro.experiments.sweeps import examined_gain
from t3_tau_global import ATTR_CAP
from t5_krange_global import K_GRIDS


def main(spark=None, fast: bool = False, timeout: float = 120.0) -> dict:
    spark = spark or get_spark("t7_gains")
    out = {}
    lines = [
        "| dataset | problem | k range | baseline examined | "
        "optimized examined | gain | paper gain |",
        "|---|---|---|---|---|---|---|",
    ]
    paper = {
        ("compas", "global"): "39.35%", ("student", "global"): "56.87%",
        ("german", "global"): "29.27%", ("compas", "prop"): "39.60%",
        ("student", "prop"): "20.49%", ("german", "prop"): "56.83%",
    }
    for name, ds in load_datasets(spark, fast).items():
        view = ds.with_attrs(min(ATTR_CAP[name], len(ds.pattern_attrs)))
        k_wide = min(40 if fast else K_GRIDS[name][-1], ds.n)
        for problem in ("global", "prop"):
            for k_max in (DEFAULTS.k_max, k_wide):
                rows = sweep_krange(
                    view, problem, [k_max], timeout_s=timeout
                )
                row = rows[0]
                gain = examined_gain(row)
                out[(name, problem, k_max)] = gain
                base, opt = row["baseline"], row["optimized"]
                gain_s = f"{100 * gain:.2f}%" if gain is not None else "TO"
                lines.append(
                    f"| {name} | {problem} | [10,{k_max}] | "
                    f"{base.examined} | {opt.examined} | {gain_s} | "
                    f"{paper[(name, problem)]} |"
                )
    emit("T7 patterns-examined gains", "\n".join(lines))
    return out


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast, timeout=args.timeout)
