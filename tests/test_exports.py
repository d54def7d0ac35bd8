import importlib
import pkgutil

import pytest

import skd

MODULES = sorted(info.name for info in pkgutil.iter_modules(skd.__path__, "skd."))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # A stale name in __all__ otherwise fails only on a star import.
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
