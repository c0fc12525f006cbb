import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

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


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


# The config dataclasses a demo builds: each keyword it passes must name a field.
CONFIGS = {
    cls.__name__: {f.name for f in dataclasses.fields(cls)} for cls in (eigipr.EnsembleSpec, eigipr.RunConfig)
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # Parsed, not run: each demo takes seconds and writes files.
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "eigipr":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "eigipr":
                    importlib.import_module(a.name)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in CONFIGS:
                missing += [f"{name}({k.arg}=)" for k in node.keywords if k.arg and k.arg not in CONFIGS[name]]
    assert missing == []


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_tour_rows_found():
    assert set(re.findall(r"^\| `eigipr\.(\w+)`", README, flags=re.M)) == set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_readme_tour_names_every_public_name(name):
    # The module's row of the README's "Library tour" names each entry of __all__ in backticks.
    row = re.search(rf"^\| `eigipr\.{name}` .*$", README, flags=re.M).group(0)
    named = set(re.findall(r"`([^`]+)`", row))
    module = importlib.import_module(f"eigipr.{name}")
    assert [attr for attr in module.__all__ if attr not in named] == []
