"""Test helpers: randomized ranked datasets (driver-only) for the
algorithm-equivalence grids, and random bound specs."""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.bounds import GlobalSpec
from repro.core.store import PandasStatsStore
from repro.datasets.base import RankedDataset


#: Seeds the equivalence grids run with ``messy=True``, on top of their own.
MESSY_SEEDS = list(range(40, 48))


def make_random_ranked(
    seed: int,
    n_min: int = 20,
    n_max: int = 120,
    attrs_min: int = 2,
    attrs_max: int = 5,
    messy: bool = False,
) -> RankedDataset:
    """A random categorical dataset with a random total ranking. Small and
    driver-only, for brute-force-validated grids. ``messy`` makes the
    first attribute single-valued and about one value in ten null."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    n_attrs = int(rng.integers(attrs_min, attrs_max + 1))
    cards = rng.integers(2, 5, n_attrs)
    if messy:
        cards[0] = 1
    data = {
        f"A{i}": rng.integers(0, cards[i], n).astype(str)
        for i in range(n_attrs)
    }
    pdf = pd.DataFrame(data)
    if messy:
        pdf = pdf.where(rng.random(pdf.shape) >= 0.1, None)
    pdf["rank"] = rng.permutation(n) + 1
    return RankedDataset(
        name=f"random(seed={seed})",
        pdf=pdf,
        pattern_attrs=[f"A{i}" for i in range(n_attrs)],
    )


def random_params(seed: int, n: int) -> dict:
    """Random (tau, k_min, k_max, GlobalSpec, alpha) for a dataset of n
    rows — covers constant bounds, stepping bounds, narrow/wide ranges."""
    rng = np.random.default_rng(seed + 10_000)
    k_min = int(rng.integers(2, max(3, n // 4)))
    k_max = min(n, k_min + int(rng.integers(1, 20)))
    tau = int(rng.integers(1, max(2, n // 4)))
    steps = {k_min: int(rng.integers(1, k_min + 2))}
    bound = steps[k_min]
    for k in range(k_min + 1, k_max + 1):
        if rng.random() < 0.2:
            bound += int(rng.integers(0, 3))
            steps[k] = bound
    return {
        "tau": tau,
        "k_min": k_min,
        "k_max": k_max,
        "global_spec": GlobalSpec(steps),
        "alpha": float(rng.uniform(0.3, 1.5)),
    }


def store_of(ds: RankedDataset) -> PandasStatsStore:
    return ds.pandas_store()
