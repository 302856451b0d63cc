import importlib
import pkgutil

import pytest

import fejerlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(fejerlab.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    # a stale entry fails only on `from fejerlab.<module> import *`
    mod = importlib.import_module(f"fejerlab.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
