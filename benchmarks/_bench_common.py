"""Shared helpers for the table benchmarks.

Each benchmark measures one end-to-end detection run — a fresh Spark
pattern-statistics store per round (so memoised statistics from earlier
rounds cannot flatter later ones) plus the full search. ``extra_info``
records patterns examined and statistics computed so
``bench_output.txt`` carries the paper's search-effort metric next to the
timings.
"""
from __future__ import annotations

from repro.core.bounds import paper_default_global, PropSpec
from repro.experiments.runner import run_algorithm

#: Attribute cap used by the default-parameter benchmarks (mirrors the
#: jobs' ATTR_CAP — the paper capped attributes at what the baseline could
#: handle).
BENCH_ATTRS = 8


def bench_detection(
    benchmark, ds, problem, algo, tau=50, k_min=10, k_max=49, n_attrs=BENCH_ATTRS
):
    view = ds.with_attrs(min(n_attrs, len(ds.pattern_attrs)))
    spec = (
        paper_default_global() if problem == "global" else PropSpec(0.8)
    )
    outcomes = []

    def setup():
        return (view.spark_store(),), {}

    def target(store):
        out = run_algorithm(store, problem, algo, spec, tau, k_min, k_max)
        outcomes.append(out)
        return out

    benchmark.pedantic(target, setup=setup, rounds=1, iterations=1)
    last = outcomes[-1]
    assert not last.timed_out
    benchmark.extra_info["examined"] = last.examined
    benchmark.extra_info["store_jobs"] = last.store_jobs
    benchmark.extra_info["search_s"] = round(last.search_s, 4)
    benchmark.extra_info["dataset"] = ds.name
    return last
