"""The layer tracer in bench/tracing.py wraps rankfit functions by module
attribute name. A rename or removal under src/ would make
``bench/run.py --trace 1`` fail, so every name it lists must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name, attr, name", tracing.SPANS + tracing.COUNTERS)
def test_traced_attribute_resolves(module_name, attr, name):
    assert callable(getattr(importlib.import_module(module_name), attr))
