"""Every function the benchmark's tracer wraps is still bound in its layer.

perfbench/spans.py wraps each (layer, name) of its LAYERS table, looking the
name up with getattr on spectratile.<layer>, so a function renamed or
removed there would make `perfbench/run.py --trace 1` die with
AttributeError.  The table is read from the file itself, loaded by path."""

import importlib
import importlib.util

import pytest

from conftest import TESTS_DIR

SPANS = TESTS_DIR.parent / "perfbench" / "spans.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


BINDINGS = [(layer, name) for layer, names in traced_layers().items() for name in names]


@pytest.mark.parametrize("layer, name", BINDINGS, ids=[".".join(pair) for pair in BINDINGS])
def test_traced_function_is_bound(layer, name):
    assert callable(getattr(importlib.import_module(f"spectratile.{layer}"), name))
