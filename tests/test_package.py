import importlib

import pytest

import spd_agg

MODULES = ("errors", "linalg", "kernel", "stiefel", "head", "network", "data")


@pytest.mark.parametrize("module", MODULES)
def test_package_republishes_each_module_interface(module):
    mod = importlib.import_module(f"spd_agg.{module}")
    missing = [name for name in mod.__all__ if getattr(spd_agg, name, None) is not getattr(mod, name)]
    assert missing == []
