"""The detection benchmark's tracer names search functions by module and
attribute; a rename in ``src/`` must fail here rather than turn a per-layer
metric into "missing"."""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "detectbench" / "layers.py"


def _search_functions() -> dict:
    spec = importlib.util.spec_from_file_location("detectbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SEARCH_FUNCTIONS


@pytest.mark.parametrize("key,target", sorted(_search_functions().items()))
def test_traced_search_function_exists(key, target):
    module_name, name = target
    assert hasattr(importlib.import_module(module_name), name), key
