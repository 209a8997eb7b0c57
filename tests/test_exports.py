import importlib
import types

import pytest

import wrightlens

LAYERS = ("special", "laurent", "bounds", "membership", "radii", "errors")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    # tools that walk a layer's __all__ (the benchmark's span tracer does)
    # break on a stale entry
    module = importlib.import_module(f"wrightlens.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_exactly_the_layers_names():
    # the package re-exports each layer's __all__ and lists no name itself
    homes = {}
    for layer in LAYERS:
        module = importlib.import_module(f"wrightlens.{layer}")
        for name in module.__all__:
            assert name not in homes, f"{name} is exported by two layers"
            homes[name] = module
    public = {
        name for name, value in vars(wrightlens).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == homes.keys()
    for name, module in homes.items():
        assert getattr(wrightlens, name) is getattr(module, name)
