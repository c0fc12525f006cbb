import importlib
import types

import pytest

import eigipr

MODULES = ["cli", "core", "ensembles", "experiments", "legendre", "output", "schur", "theory"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"eigipr.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_only_listed_names():
    listed = set()
    for name in MODULES:
        listed.update(importlib.import_module(f"eigipr.{name}").__all__)
    public = {
        attr
        for attr, value in vars(eigipr).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - listed == set()
