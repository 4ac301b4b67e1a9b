"""Parameter sweeps behind the paper's Figures 4–9 and the in-text
patterns-examined / result-size statistics.

Each sweep point builds a *fresh* Spark store (``RankedDataset.spark_store``)
per algorithm, so the measured time includes computing every pattern
statistic for baseline and optimized alike — the paper measures complete
runs the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.bounds import GlobalSpec, PropSpec, paper_default_global
from repro.datasets.base import RankedDataset
from repro.experiments.runner import RunOutcome, run_algorithm


@dataclass(frozen=True)
class Defaults:
    """The paper's default parameters (Section VI-A)."""

    tau: int = 50
    k_min: int = 10
    k_max: int = 49
    alpha: float = 0.8

    def spec(self, problem: str) -> GlobalSpec | PropSpec:
        return (
            paper_default_global() if problem == "global"
            else PropSpec(self.alpha)
        )


DEFAULTS = Defaults()

_ALGOS = ("baseline", "optimized")


def _point(
    ds: RankedDataset,
    problem: str,
    spec,
    tau: int,
    k_min: int,
    k_max: int,
    timeout_s: float | None,
) -> dict[str, RunOutcome]:
    out = {}
    for algo in _ALGOS:
        out[algo] = run_algorithm(
            ds.spark_store(), problem, algo, spec, tau, k_min, k_max, timeout_s
        )
    return out


def sweep_num_attrs(
    ds: RankedDataset,
    problem: str,
    attr_counts: Sequence[int],
    defaults: Defaults = DEFAULTS,
    timeout_s: float | None = 120.0,
) -> list[dict]:
    """Figures 4–5: runtime as a function of the number of attributes."""
    rows = []
    for m in attr_counts:
        point = _point(
            ds.with_attrs(m), problem,
            defaults.spec(problem), defaults.tau,
            defaults.k_min, defaults.k_max, timeout_s,
        )
        rows.append({"dataset": ds.name, "n_attrs": m, **point})
    return rows


def sweep_tau(
    ds: RankedDataset,
    problem: str,
    taus: Sequence[int],
    defaults: Defaults = DEFAULTS,
    timeout_s: float | None = 120.0,
) -> list[dict]:
    """Figures 6–7: runtime as a function of the size threshold τ_s."""
    rows = []
    for tau in taus:
        point = _point(
            ds, problem, defaults.spec(problem), tau,
            defaults.k_min, defaults.k_max, timeout_s,
        )
        rows.append({"dataset": ds.name, "tau": tau, **point})
    return rows


def _krange_spec(problem: str, k_min: int, k_max: int, defaults: Defaults):
    """Bounds for the k-range sweep: the paper's gradually-increasing
    global bounds extended over the widened range (a step every 10
    positions, as in the default setting), or the default α."""
    if problem == "prop":
        return PropSpec(defaults.alpha)
    steps = {k: k for k in range(k_min, k_max + 1, 10)}
    return GlobalSpec(steps)


def sweep_krange(
    ds: RankedDataset,
    problem: str,
    k_maxes: Sequence[int],
    defaults: Defaults = DEFAULTS,
    timeout_s: float | None = 120.0,
) -> list[dict]:
    """Figures 8–9: runtime as a function of the range of k
    (``k_min`` fixed at the default, ``k_max`` varied)."""
    rows = []
    for k_max in k_maxes:
        spec = _krange_spec(problem, defaults.k_min, k_max, defaults)
        point = _point(
            ds, problem, spec, defaults.tau,
            defaults.k_min, k_max, timeout_s,
        )
        rows.append({"dataset": ds.name, "k_max": k_max, **point})
    return rows


def examined_gain(point: dict[str, RunOutcome]) -> float | None:
    """Patterns-examined gain of the optimized algorithm at one sweep
    point: ``1 − examined_opt / examined_baseline`` (the paper's §VI-B
    percentage). None if either run timed out."""
    base, opt = point["baseline"], point["optimized"]
    if base.timed_out or opt.timed_out or base.examined <= 0:
        return None
    return 1.0 - opt.examined / base.examined


def result_size_census(rows: list[dict], threshold: int = 100) -> dict:
    """Fraction of (run, k) result sets with fewer than ``threshold``
    groups — the paper's in-text 97.58% statistic (Section III)."""
    total = below = 0
    for row in rows:
        for algo in _ALGOS:
            out = row[algo]
            if out.timed_out:
                continue
            for count in out.groups_per_k.values():
                total += 1
                below += count < threshold
    return {
        "result_sets": total,
        "below_threshold": below,
        "fraction": below / total if total else float("nan"),
    }
