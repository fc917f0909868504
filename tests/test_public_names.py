"""Every module's ``__all__`` lists names, so ``import *`` works on it."""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exported_attributes(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert all(isinstance(item, str) for item in exported), exported
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})
