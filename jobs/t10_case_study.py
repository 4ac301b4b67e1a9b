"""T10 (paper §VI-D): case-study comparison with the divergence method of
[27] on the Student dataset — first 4 attributes (school, sex, age,
address), k=10, τ_s=50 (support 0.13), L=10 / α=0.8.

Paper result: PROPBOUNDS → 2 patterns ({sex=F}, {address=R}), GLOBALBOUNDS
→ those plus {school=GP}, {sex=M}, {address=U}; [27] → 28 groups including
every group our algorithms detect, with descendants of {sex=M} ranked at
the top by divergence.

Usage: spark-submit jobs/t10_case_study.py [--fast]
"""
from __future__ import annotations

from _common import emit, get_spark, load_datasets, parse_args
from repro.core import GlobalSpec, PropSpec, global_bounds, prop_bounds
from repro.core.pattern import pattern_to_str
from repro.divergence import divergence_subgroups

K = 10
TAU = 50


def main(spark=None, fast: bool = False, timeout: float = 120.0) -> dict:
    spark = spark or get_spark("t10_case_study")
    ds = load_datasets(spark, fast)["student"]
    tau = max(2, int(TAU * ds.n / 395))
    view = ds.with_attrs(4)
    store = view.spark_store()
    attrs = view.pattern_attrs

    gb = global_bounds(store, GlobalSpec({K: 10}), tau, K, K).res[K]
    pb = prop_bounds(store, PropSpec(0.8), tau, K, K).res[K]
    div = divergence_subgroups(ds.df, attrs, k=K, min_support=tau / ds.n)

    div_patterns = list(div["pattern"])
    our = gb | pb
    contained = all(p in set(div_patterns) for p in our)
    lines = [
        f"τ_s={tau}, k={K} (support {tau / ds.n:.2f})",
        "",
        f"PROPBOUNDS (α=0.8): {sorted(pattern_to_str(p, attrs) for p in pb)}",
        f"GLOBALBOUNDS (L=10): {sorted(pattern_to_str(p, attrs) for p in gb)}",
        f"divergence method [27]: {len(div)} groups "
        f"(paper: 2 / 5 / 28)",
        "",
        f"all our detected groups appear in [27]'s output: {contained}",
        "",
        "top-5 groups of [27] by |divergence| (paper: 3–5-attribute "
        "descendants of {sex=M}):",
        "",
        "| pattern | size | divergence |",
        "|---|---|---|",
    ]
    by_abs = div.reindex(
        div["divergence"].abs().sort_values(ascending=False).index
    )
    for r in by_abs.head(5).itertuples():
        lines.append(
            f"| {pattern_to_str(r.pattern, attrs)} | {r.size} | "
            f"{r.divergence:+.4f} |"
        )
    n_desc = sum(
        1
        for p in by_abs.head(5)["pattern"]
        for q in our
        if set(q) < set(p)
    )
    lines.append("")
    lines.append(
        f"of those top-5, {n_desc} containment relations with our most "
        "general patterns (descendant-of-detected)"
    )
    emit("T10 case study — Student, 4 attributes", "\n".join(lines))
    return {"global": gb, "prop": pb, "divergence": div}


if __name__ == "__main__":
    args = parse_args(__doc__)
    main(fast=args.fast)
