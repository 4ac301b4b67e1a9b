"""The detection benchmark's tracer names search functions by module and
attribute, and store counters by attribute; a rename in ``src/`` must fail
here rather than turn a per-layer metric into "missing"."""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "detectbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("detectbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("key,target", sorted(_layers().SEARCH_FUNCTIONS.items()))
def test_traced_search_function_exists(key, target):
    module_name, name = target
    assert hasattr(importlib.import_module(module_name), name), key


def test_spark_store_has_traced_counters_and_row_lookup(paper_ds_spark):
    """Every counter the tracer reads exists on the Spark store, and its
    ``row_at_rank`` can be replaced on the instance to time the first
    lookup."""
    layers = _layers()
    store = paper_ds_spark.spark_store()
    for key, attr in layers.STORE_COUNTERS.items():
        assert hasattr(store, attr), key
    assert layers.store_counters(store).keys() == layers.STORE_COUNTERS.keys()
    record = {}
    first = store.row_at_rank(1)
    layers.time_first_row_lookup(store, record)
    assert store.row_at_rank(1) == first
    assert "rows_s" in record
