"""The names the benchmark under perfbench/ reaches into the package by.

perfbench's tracer and worker look functions up by (module, attribute);
a renamed or deleted one breaks the benchmark, whose own tests are not
part of this suite.  These checks keep those names in place.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import szscatter

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_places():
    return sorted({place for places in _load_tracing().SPANS.values()
                   for place in places})


# Counted by the tracer, called by the worker, or read for its record.
OTHER_PLACES = [("sz_core", "_bundle_for"), ("sz_core", "_refined_product"),
                ("bounds", "theta_field"), ("_kernels", "warm_up")]


@pytest.mark.parametrize("module,attr", _traced_places() + OTHER_PLACES)
def test_benchmark_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"szscatter.{module}"),
                            attr))


def test_worker_imports_load_every_module_the_benchmark_names():
    # The tracer wraps only the modules in sys.modules, so each one named
    # here must load with the two imports perfbench's worker makes, in a
    # process that imports nothing else.
    modules = sorted({module for module, _ in _traced_places() + OTHER_PLACES})
    src = os.path.dirname(os.path.dirname(os.path.abspath(szscatter.__file__)))
    code = ("import sys, szscatter, szscatter.cli; "
            "print(' '.join(m for m in sys.argv[1:] "
            "if 'szscatter.' + m not in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, *modules],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == []


def test_numba_active_is_exported_and_false():
    assert szscatter.numba_active() is False
