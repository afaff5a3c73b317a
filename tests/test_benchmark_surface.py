"""The names that every script under perfbench/ and benchmarks/bench_kernels.py
reach into still exist.

The tracer wraps sumsetlab functions by name and the benchmark scripts
import sumsetlab names, so a rename in src/ would otherwise break the
benchmark without failing any test.  The scripts are read with ast, never
run.  The key the tracer looks up in the hull memo store is pinned by
TestConfigMemo in test_lattice.py.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from sumsetlab import kernels
from sumsetlab.sumsets import SemigroupOracle

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)


def _lookup(module, name):
    """``name`` read off the module, or its submodule of that name; None
    when there is neither."""
    if hasattr(importlib.import_module(module), name):
        return getattr(importlib.import_module(module), name)
    if importlib.util.find_spec(f"{module}.{name}") is None:
        return None
    return importlib.import_module(f"{module}.{name}")


def _sumsetlab_names(path):
    """(module, name) for every ``from sumsetlab... import name`` in a file,
    and for every ``name.attr`` read off an imported sumsetlab module."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "sumsetlab"
             for alias in node.names]
    modules = {name: f"{module}.{name}" for module, name in found
               if inspect.ismodule(_lookup(module, name))}
    found += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return found


def test_tracer_targets_resolve(tracer):
    for layer, names in tracer.TARGETS.items():
        module = importlib.import_module(f"sumsetlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    assert callable(SemigroupOracle.contains)
    assert callable(SemigroupOracle.__init__)
    assert kernels.active_backend() == "numpy"


def test_kernels_compare_imports_resolve():
    found = _sumsetlab_names(os.path.join(PERFBENCH, "kernels_compare.py"))
    assert ("sumsetlab.kernels", "active_backend") in found
    for module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_bench_kernels_imports_resolve():
    found = _sumsetlab_names(os.path.join(BENCHMARKS, "bench_kernels.py"))
    assert ("sumsetlab.sumsets", "_frontier_key_box") in found
    assert ("sumsetlab.khovanskii", "_hilbert_numerator") in found
    for module, name in found:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("script, expected", [
    ("answers.py", ("sumsetlab", "khovanskii_threshold")),
    ("make_refs.py", ("sumsetlab", "khovanskii_polynomial")),
    ("workloads.py", ("sumsetlab", "khovanskii_bounds")),
    ("passrun.py", ("sumsetlab.cli", "main")),
])
def test_perfbench_imports_resolve(script, expected):
    found = _sumsetlab_names(os.path.join(PERFBENCH, script))
    assert expected in found
    for module, name in found:
        assert _lookup(module, name) is not None, f"{module}.{name}"
