import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

import pytest

import eigipr
from eigipr import cli, ensembles

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


def _eigipr_references(tree):
    """``(module, name)`` for each name ``tree`` imports from, or reads as an attribute of, an eigipr module.

    A name bound by ``import eigipr``, ``import eigipr.x as y`` or ``from eigipr import x`` (a module)
    stands for that module, so ``y.name`` and ``eigipr.x.name`` are references, as is each name of
    ``from eigipr.x import name``.
    """
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "eigipr":
                    module = importlib.import_module(a.name)
                    modules[a.asname or "eigipr"] = module if a.asname else eigipr
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "eigipr":
            for a in node.names:
                if node.module == "eigipr" and a.name in MODULES:
                    modules[a.asname or a.name] = importlib.import_module(f"eigipr.{a.name}")
                else:
                    refs.append((node.module, a.name))

    def module_of(node):
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        value = getattr(module_of(node.value), node.attr, None) if isinstance(node, ast.Attribute) else None
        return value if isinstance(value, types.ModuleType) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (module := module_of(node.value)) is not None:
            refs.append((module.__name__, node.attr))
    return refs


def _missing(refs):
    return [f"{module}.{name}" for module, name in refs if not hasattr(importlib.import_module(module), name)]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    # Parsed, not run: each demo takes seconds and writes files.
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    missing = _missing(_eigipr_references(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in CONFIGS:
                missing += [f"{name}({k.arg}=)" for k in node.keywords if k.arg and k.arg not in CONFIGS[name]]
    assert missing == []


def test_bench_references_resolve():
    # Parsed, read only: the benchmark's replay calls eigipr's layers by name, so a dropped name fails here
    # and not only when the benchmark runs.
    scripts = sorted((Path(__file__).parent.parent / "bench").glob("*.py"))
    refs = [ref for path in scripts for ref in _eigipr_references(ast.parse(path.read_text(encoding="utf-8")))]
    used = {("eigipr.experiments", "realness_threshold"), ("eigipr.legendre", "g_inverse"), ("eigipr.core", "EigRecord")}
    assert used <= set(refs)
    assert _missing(refs) == []


def test_bench_reference_guard_sees_a_dropped_name():
    tree = ast.parse(
        "import eigipr\nfrom eigipr import experiments as ex\nfrom eigipr.core import Records, Gone\n"
        "def f(records):\n    return ex.spectrum_ipr_map, ex.Records.concat(records), eigipr.cli.gone\n"
    )
    assert _missing(_eigipr_references(tree)) == ["eigipr.core.Gone", "eigipr.cli.gone"]


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


SRC = Path(eigipr.__file__).parent


def _int_of_own_parameter(tree):
    """``module.function`` names of the functions and lambdas in ``tree`` that call ``int(p)`` on a parameter ``p``.

    ``int(text, 10)`` is not counted: with a base, `int` parses text and cannot truncate.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if p}
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "int"
                and len(call.args) == 1
                and not call.keywords
                and getattr(call.args[0], "id", None) in params
            ):
                found.append(getattr(node, "name", "<lambda>"))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_counts_checked_only_by_core_count(name):
    # core._count is the one rule for whole-number arguments; a local int(x) would truncate 2.5 to 2.
    found = _int_of_own_parameter(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")))
    assert set(found) == ({"_count"} if name == "core" else set())


def test_int_guard_sees_a_truncation():
    tree = ast.parse("def f(n, *, q):\n    return int(n), int(str(q)), int(q, 10)\ng = lambda m: int(m)\n")
    assert _int_of_own_parameter(tree) == ["f", "<lambda>"]


@pytest.mark.parametrize("command", ["sample-spectrum", "figure"])
def test_matrix_commands_take_every_spec_field(command):
    # One flag per EnsembleSpec field after kind, with the spec's default, so a new field reaches every matrix command.
    schema, _ = cli._COMMANDS[command]
    fields = dataclasses.fields(eigipr.EnsembleSpec)
    assert [f.name for f in fields[1:] if f.name not in schema] == []
    assert {f.name: schema[f.name][1] for f in fields[2:]} == {f.name: f.default for f in fields[2:]}


def _kind_names_spelled(tree, kinds):
    """The string constants in ``tree`` that equal a matrix kind's name."""
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in kinds]


@pytest.mark.parametrize("name", MODULES)
def test_kind_names_spelled_only_by_ensembles(name):
    # A kind is one row of ensembles._KINDS; a module that spells a kind's name keeps a second list of kinds.
    found = _kind_names_spelled(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")), ensembles.KINDS)
    assert (found != []) == (name == "ensembles")


def test_kind_name_guard_sees_a_hand_kept_list():
    tree = ast.parse('if config.spec.kind not in ("elliptic_real", "ginibre_real"):\n    pass\n')
    assert _kind_names_spelled(tree, ensembles.KINDS) == ["elliptic_real", "ginibre_real"]


def _csv_columns_spelled(tree):
    """The string constants in ``tree`` that spell a records-CSV column name: re_lambda, im_lambda or ipr_q<q>."""
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"re_lambda|im_lambda|ipr_q\d*", node.value)
    ]


@pytest.mark.parametrize("name", MODULES)
def test_csv_column_names_spelled_only_by_output(name):
    # output owns the records CSV; a module that spells its column names keeps a second copy of its layout.
    found = _csv_columns_spelled(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")))
    assert (found != []) == (name == "output")


def test_csv_column_guard_sees_a_second_spelling():
    tree = ast.parse('head = ["trial", "re_lambda", "im_lambda"] + [f"ipr_q{q}" for q in qs]\nok = "ipr_q2" in head\n')
    assert sorted(_csv_columns_spelled(tree)) == ["im_lambda", "ipr_q", "ipr_q2", "re_lambda"]


def test_compare_takes_the_spec_fields_its_kinds_read():
    schema, _ = cli._COMMANDS["compare"]
    read = {f for _, _, fields, elliptic in ensembles._KINDS.values() if elliptic for f in fields}
    spec_fields = {f.name for f in dataclasses.fields(eigipr.EnsembleSpec)[2:]}
    assert set(cli._COMMON_RUN) - set(schema) == spec_fields - read == {"nu", "d", "theta"}


def test_every_kind_built_by_its_command_line_name_and_its_own():
    names = {
        "elliptic": "elliptic_real",
        "ginibre-real": "ginibre_real",
        "ginibre-complex": "ginibre_complex",
        "induced": "induced_ginibre",
        "orthogonal-sum": "orthogonal_sum",
        "permutation-sum": "permutation_sum",
    }
    assert sorted(names.values()) == sorted(ensembles.KINDS)
    p = {"N": 4, "trials": 1, "seed": 0, "workers": 1}
    for name, kind in names.items():
        assert ensembles._KINDS[kind][0] == name
        for ensemble in (name, kind):
            assert cli._make_run_config(dict(p, ensemble=ensemble), (2,)).spec.kind == kind
