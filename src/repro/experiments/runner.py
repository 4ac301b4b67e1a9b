"""Single-run wrapper: execute one detection algorithm on one store with a
wall-clock budget, recording runtime, search effort and result sizes."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import global_bounds, iter_td, prop_bounds
from repro.core.bounds import GlobalSpec, PropSpec
from repro.core.result import SearchTimeout
from repro.core.store import BaseStatsStore

#: (problem, algorithm-name) → callable. "baseline" is ITERTD for both
#: problems; "optimized" is GLOBALBOUNDS / PROPBOUNDS respectively.
ALGORITHMS = {
    ("global", "baseline"): iter_td,
    ("global", "optimized"): global_bounds,
    ("prop", "baseline"): iter_td,
    ("prop", "optimized"): prop_bounds,
}

#: The bound specification each problem is defined by.
SPECS = {"global": GlobalSpec, "prop": PropSpec}


@dataclass
class RunOutcome:
    """Measured outcome of one run (``timed_out`` runs carry partial
    effort counters and no result).

    ``time_s`` covers the whole search (the store's Spark query runs when the
    store is built, before it); ``agg_s`` is the share spent computing
    pattern statistics (the counting substrate, identical for every
    algorithm on the same inputs); ``search_s = time_s − agg_s`` is the
    algorithmic cost the paper's figures compare.
    """

    problem: str
    algo: str
    time_s: float
    examined: int
    store_jobs: int
    timed_out: bool
    agg_s: float = 0.0
    res: dict[int, frozenset] | None = None
    groups_per_k: dict[int, int] = field(default_factory=dict)

    @property
    def search_s(self) -> float:
        return max(0.0, self.time_s - self.agg_s)


def run_algorithm(
    store: BaseStatsStore,
    problem: str,
    algo: str,
    spec: GlobalSpec | PropSpec,
    tau: int,
    k_min: int,
    k_max: int,
    timeout_s: float | None = None,
) -> RunOutcome:
    """Run one algorithm end to end; a deadline overrun returns a
    ``timed_out`` outcome instead of raising (matching the paper's
    10-minute-timeout sweeps where slow points are reported as such).

    Raises ``ValueError`` naming the parameter when ``spec`` is not the
    kind of bounds ``problem`` is defined by, ``tau < 1``, ``k_min < 1``,
    ``k_min > k_max`` or ``k_max > store.n``."""
    if not isinstance(spec, SPECS.get(problem, ())):
        raise ValueError(
            f"problem {problem!r} does not take a {type(spec).__name__}"
        )
    if tau < 1:
        raise ValueError(f"tau must be at least 1, got {tau}")
    if k_min < 1:
        raise ValueError(f"k_min must be at least 1, got {k_min}")
    if k_min > k_max:
        raise ValueError(f"k_min ({k_min}) must not exceed k_max ({k_max})")
    if k_max > store.n:
        raise ValueError(f"k_max ({k_max}) must not exceed n ({store.n})")
    fn = ALGORITHMS[(problem, algo)]
    jobs_before = store.jobs
    agg_before = store.agg_seconds
    start = time.monotonic()
    deadline = None if timeout_s is None else start + timeout_s
    try:
        result = fn(store, spec, tau, k_min, k_max, deadline=deadline)
    except SearchTimeout:
        return RunOutcome(
            problem=problem,
            algo=algo,
            time_s=time.monotonic() - start,
            examined=-1,
            store_jobs=store.jobs - jobs_before,
            timed_out=True,
            agg_s=store.agg_seconds - agg_before,
        )
    elapsed = time.monotonic() - start
    return RunOutcome(
        problem=problem,
        algo=algo,
        time_s=elapsed,
        examined=result.stats.examined,
        store_jobs=store.jobs - jobs_before,
        timed_out=False,
        agg_s=store.agg_seconds - agg_before,
        res=result.res,
        groups_per_k={k: len(v) for k, v in result.res.items()},
    )
