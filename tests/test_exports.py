import importlib

import pytest

LAYERS = ("special", "laurent", "bounds", "membership", "radii")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # tools that walk a layer's __all__ (the benchmark's span tracer does)
    # break on a stale entry
    module = importlib.import_module(f"wrightlens.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)

