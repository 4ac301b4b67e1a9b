"""Core algorithms of the paper: pattern model, pattern-statistics stores,
and the three search algorithms (ITERTD, GLOBALBOUNDS, PROPBOUNDS)."""

from repro.core.pattern import (  # noqa: F401
    EMPTY,
    Pattern,
    attr_indices,
    children,
    pattern_to_str,
    satisfies,
    values,
)
from repro.core.bounds import (  # noqa: F401
    GlobalSpec,
    PropSpec,
    k_tilde,
    paper_default_global,
)
from repro.core.topdown import top_down_search  # noqa: F401
from repro.core.store import (  # noqa: F401
    PandasStatsStore,
    PatternStat,
    SparkStatsStore,
)
from repro.core.result import SearchResult, SearchStats  # noqa: F401
from repro.core.itertd import iter_td  # noqa: F401
from repro.core.global_bounds import global_bounds  # noqa: F401
from repro.core.prop_bounds import prop_bounds  # noqa: F401
from repro.core.brute_force import brute_force  # noqa: F401
