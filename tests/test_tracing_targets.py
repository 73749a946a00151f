"""The benchmark (perfbench/) reads the package in three ways: its tracer
(perfbench/tracing.py) wraps library functions by (module, name) at run time,
its hooks read the results of the wrapped calls, and its scripts import names
from the package.  A deleted or renamed one would break only the benchmark,
so each is checked here.  The benchmark's files are loaded or parsed, not
edited."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from mumford_heat.heat import sample_paths
from mumford_heat.operator import generator_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _package_imports() -> list[tuple[str, str]]:
    """(module, name) for each ``from mumford_heat... import name`` in perfbench/."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "mumford_heat"):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


IMPORTS = _package_imports()


def test_benchmark_imports_are_found():
    # what checks.py and make_reference.py import, so the parse is not vacuous
    expected = {("mumford_heat", name) for name in (
        "admissible_wavelets", "parse_config", "state_discs", "wavelet_eval",
        "spectrum")} | {("mumford_heat.config", "format_rational")}
    assert expected <= set(IMPORTS)


@pytest.mark.parametrize("module,name", IMPORTS,
                         ids=[f"{mod}.{name}" for mod, name in IMPORTS])
def test_benchmark_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_sample_hook_reads_path_columns(tate_cfg):
    # the hook iterates the sample and reads each item's jump_times
    paths = sample_paths(generator_matrix(tate_cfg, 2), 5, 1.0, seed=3)
    assert all(hasattr(path, "jump_times") for path in paths)
    tracer = _tracing.Tracer()
    _tracing._after_sample(tracer, paths, 0)
    assert tracer.counts["heat.paths"] == len(paths) == 5
    assert tracer.counts["heat.jumps"] == len(paths.times) - len(paths)
