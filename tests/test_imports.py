"""Every module imports cleanly and carries a real docstring."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.endswith("__main__")  # running it would invoke the CLI
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


def test_version_present():
    assert repro.__version__


def test_public_docstrings():
    """Every public module carries a real docstring (the documentation
    deliverable lives in the code)."""
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        if module_name.endswith("__main__"):
            continue
        assert module.__doc__ and len(module.__doc__) > 40, module_name
