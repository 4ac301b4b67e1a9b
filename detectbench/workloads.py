"""The benchmark's workloads: which dataset, problem and parameters each one
runs, and why it was chosen.

Every workload uses full-size synthetic data (the generators' default ``n``)
and the first ``n_attrs`` pattern attributes. ``n_attrs`` is smaller than
the 8 attributes of the paper-scale jobs because, on the Spark statistics
store, one detection costs about 0.1 s per Spark aggregation job and the
job count grows with the number of attribute subsets: at 8 attributes one
COMPAS detection takes about 20 s, which leaves no room for repeated,
warmed-up measurements in a run of under a minute.

``BENCHMARK.json`` lists the workloads that fit the benchmark's time
budget; ``compas-prop`` is defined here too and runs by name.
"""
from __future__ import annotations

from dataclasses import dataclass

import repro.datasets
from repro.core.bounds import GlobalSpec, PropSpec, paper_default_global

#: Proportional workloads use the paper's default α.
ALPHA = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    #: Constructor in ``repro.datasets``; called as ``fn(spark, seed=seed)``.
    dataset: str
    #: The generator's own default seed; ``--seed`` replaces it.
    default_seed: int
    #: Score column the constructor ranks by (ties broken by ``id``).
    score_col: str
    problem: str  # "prop" or "global"
    n_attrs: int
    tau: int
    k_min: int
    k_max: int
    #: sha256 of the per-k result sets at ``default_seed``
    #: (see ``run.result_digest``) and their total size Σ_k |Res_k|.
    digest: str
    groups: int

    def spec(self) -> GlobalSpec | PropSpec:
        if self.problem == "prop":
            return PropSpec(ALPHA)
        return paper_default_global()

    def generate(self, spark, seed: int):
        """Generate and rank the dataset, restricted to ``n_attrs``."""
        ds = getattr(repro.datasets, self.dataset)(spark, seed=seed)
        return ds.with_attrs(self.n_attrs)


WORKLOADS = {
    w.name: w
    for w in [
        # Largest table (n=6,889). Spark aggregation is almost all of both
        # algorithms' time, so a statistics-store change shows here and a
        # search-layer change should not. One attribute fewer than the
        # others: each of its aggregations takes about 1.7 times as long.
        Workload(
            name="compas-prop",
            dataset="compas",
            default_seed=7,
            score_col="score",
            problem="prop",
            n_attrs=4,
            tau=50,
            k_min=10,
            k_max=49,
            digest="376b59a736ba4a1087b1a0cb6d0fcaffec7d3f7c2d841754d0c5739d819a89ec",
            groups=302,
        ),
        # Small table (n=395) at a low size threshold, where the violating
        # frontier that PROPBOUNDS re-normalises every step is largest: a
        # search-layer change shows here once counting is cheap.
        Workload(
            name="student-prop-t10",
            dataset="student",
            default_seed=42,
            score_col="G3_num",
            problem="prop",
            n_attrs=5,
            tau=10,
            k_min=10,
            k_max=49,
            digest="84941c9d39975c62272165c8bf65c654e5153176ecba8f490a01c53f18e29a9a",
            groups=224,
        ),
        # The only global-bounds workload: restarts where L_k steps (k=20,
        # 30, 40), then one ordered row collect and sparse re-evaluation
        # through row_at_rank and resume_search over 340 positions, with
        # large per-k result sets. A change that speeds the proportional
        # path at the cost of the global one shows here.
        Workload(
            name="german-global-k350",
            dataset="german_credit",
            default_seed=11,
            score_col="creditworthiness",
            problem="global",
            n_attrs=5,
            tau=50,
            k_min=10,
            k_max=349,
            digest="f900f6c2f375829ed531dfcb029541c2a1d3c1c262ac19016eb156a534e5f818",
            groups=10299,
        ),
    ]
}
