"""The names the benchmark under perfbench/ reaches into the package by.

perfbench's tracer and worker look functions up by (module, attribute);
a renamed or deleted one breaks the benchmark, whose own tests are not
part of this suite.  These checks keep those names in place.
"""

import importlib
import importlib.util
import os

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


def test_numba_active_is_exported_and_false():
    assert szscatter.numba_active() is False
