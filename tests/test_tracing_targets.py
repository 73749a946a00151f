"""The benchmark's tracer (perfbench/tracing.py) wraps library functions by
(module, name) at run time; a deleted or renamed one would make every traced
benchmark run fail when the tracer installs.  The file is loaded, not edited."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TARGETS = [(mod, name) for mod, name, *_ in (*_tracing.LAYERS, _tracing.WALK)]


@pytest.mark.parametrize("module,name", TARGETS,
                         ids=[f"{mod}.{name}" for mod, name in TARGETS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"mumford_heat.{module}"), name))
