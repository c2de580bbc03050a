import importlib
import pkgutil

import pytest

import fracspde

MODULES = sorted(info.name for info in pkgutil.iter_modules(fracspde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"fracspde.{name}")
    assert [key for key in module.__all__ if not hasattr(module, key)] == []
