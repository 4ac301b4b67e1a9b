"""Per-layer tracing from outside the program.

The traced run wraps the search layer's public functions and the store of
one detection; nothing inside ``src/`` is instrumented. A wrapped function
that no longer exists is reported as missing, not as a failure.
"""
from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

#: Traced search functions: key → (defining module, function name).
SEARCH_FUNCTIONS = {
    "frontier": ("repro.core.global_bounds", "normalize_frontier"),
    "topdown": ("repro.core.topdown", "top_down_search"),
    "resume": ("repro.core.topdown", "resume_search"),
}

#: Store counters read before and after a detection: key → attribute.
STORE_COUNTERS = {"agg_s": "agg_seconds", "jobs": "jobs", "lookups": "lookups"}


class SearchTrace:
    """Counts calls to, and time spent in, the traced search functions
    while the ``with`` block runs.

    A module that imported a function by name holds its own binding
    (``prop_bounds.normalize_frontier``, ``itertd.top_down_search``, ...),
    so every ``repro`` module global bound to the original is replaced.
    The defining module is looked up with ``importlib`` because attribute
    access can yield a same-named function re-exported by a package
    (``repro.core.global_bounds`` is also a function in ``repro.core``).
    """

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SEARCH_FUNCTIONS, 0)
        self.seconds = dict.fromkeys(SEARCH_FUNCTIONS, 0.0)
        self.missing: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - start
                self.calls[key] += 1

        return traced

    def __enter__(self) -> "SearchTrace":
        for key, (module_name, name) in SEARCH_FUNCTIONS.items():
            try:
                original = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                self.missing.add(key)
                continue
            traced = self._wrap(key, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "repro" and not mod_name.startswith("repro."):
                    continue
                if getattr(mod, name, None) is original:
                    setattr(mod, name, traced)
                    self._patched.append((mod, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()


def store_counters(store) -> dict[str, float]:
    """The store's cumulative counters that exist on this store."""
    return {
        key: getattr(store, attr)
        for key, attr in STORE_COUNTERS.items()
        if hasattr(store, attr)
    }


def time_first_row_lookup(store, record: dict) -> None:
    """Record in ``record["rows_s"]`` how long the store's first
    ``row_at_rank`` call takes (the one ordered collect of all rows)."""
    original = getattr(store, "row_at_rank", None)
    if original is None:
        return

    def traced(k):
        if "rows_s" in record:
            return original(k)
        start = time.perf_counter()
        try:
            return original(k)
        finally:
            record["rows_s"] = time.perf_counter() - start

    try:
        store.row_at_rank = traced
    except AttributeError:  # a store without an instance dict
        pass



class HeapPeak:
    """Peak Python heap allocated while the ``with`` block runs, in MiB
    (``tracemalloc``; memory the JVM holds is not seen). Does nothing when
    ``enabled`` is false."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.mb: float | None = None

    def __enter__(self) -> "HeapPeak":
        if self.enabled:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            self.mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
