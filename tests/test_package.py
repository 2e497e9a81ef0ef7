import importlib

import pytest

import spd_agg
from mutants import table_faults

MODULES = ("errors", "linalg", "kernel", "stiefel", "head", "network", "data")


@pytest.mark.parametrize("module", MODULES)
def test_package_republishes_each_module_interface(module):
    mod = importlib.import_module(f"spd_agg.{module}")
    missing = [name for name in mod.__all__ if getattr(spd_agg, name, None) is not getattr(mod, name)]
    assert missing == []


def test_one_affine_parameter_type():
    # A 1x1 convolution is a dense layer at every position.
    assert spd_agg.MixParams is spd_agg.DenseParams
    assert "MixParams" in spd_agg.network.__all__ and "DenseParams" in spd_agg.head.__all__


def test_every_mutant_still_applies():
    # Each row of the mutation probe (tests/mutants.py) replaces text that
    # occurs exactly once in its file, and names a test file that exists.
    assert table_faults() == []
