"""The benchmark's layer tracer (``bench/tracer.py``) patches entry points
of the package by name.  A renamed or removed target makes every traced
benchmark run fail, so each name it patches must still resolve to a
plain function: not a static or class method, not a missing attribute.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracer = load_tracer()
TARGETS = [target for _, targets in tracer.LAYERS for target in targets]


@pytest.mark.parametrize("target", TARGETS + sorted(tracer.RESULT_HOOKS))
def test_target_resolves_to_a_plain_function(target):
    owner, attr = tracer.resolve(target)
    assert inspect.isfunction(inspect.getattr_static(owner, attr)), target


def test_every_result_hook_belongs_to_a_layer():
    assert set(tracer.RESULT_HOOKS) <= set(TARGETS)
