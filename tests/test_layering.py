"""Import rules between the package's modules, read from their source."""

import ast
import importlib
import inspect
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bogoflow"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _from_imports(module: str):
    """(source, aliases) of every from-import in module whose source is a
    bogoflow module; the package itself is the source "__init__"."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            dotted = node.module or ""
            if node.level == 0:
                if dotted != "bogoflow" and not dotted.startswith("bogoflow."):
                    continue
                dotted = dotted[len("bogoflow") :].lstrip(".")
            yield dotted or "__init__", node.names


def _imported_modules(module: str) -> set:
    """The bogoflow modules that module imports, by any import form."""
    found = set()
    for source, aliases in _from_imports(module):
        found.add(source)
        if source == "__init__":
            found.update(alias.name for alias in aliases if alias.name in MODULES)
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bogoflow."):
                    found.add(alias.name.split(".")[1])
    return found


def test_oracle_imports_no_flow_side_module():
    # the oracle is the independent reference for the flow
    flow_side = {"flow", "spectrum", "groundstate", "sequences", "verify", "cli"}
    assert _imported_modules("oracle") & flow_side == set()


@pytest.mark.parametrize("module", ["flow", "spectrum", "groundstate", "sequences"])
def test_no_flow_side_module_imports_the_oracle(module):
    # the flow builds its root, bounds and amplitudes from its own
    # coefficients; comparing them with the oracle is verify.compare_point's
    assert "oracle" not in _imported_modules(module)


def test_sequences_imports_only_the_model_and_the_kernels():
    # the majorant step check and the chains it proves stand on the model's
    # coefficients alone, apart from both routes
    from_package = {
        alias.name for source, aliases in _from_imports("sequences") if source == "__init__" for alias in aliases
    }
    assert from_package <= set(MODULES)  # "from . import" binds modules only
    assert _imported_modules("sequences") - {"__init__"} == {"model", "_kernels"}


def test_model_imports_no_bogoflow_module():
    # the closed-form route, E_bog and the 1/N coefficient, depends on
    # neither the flow nor the oracle
    assert _imported_modules("model") == set()


def test_cli_imports_nothing_from_the_oracle():
    # cli formats verify.compare_point's record; comparing is verify's
    assert "oracle" not in _imported_modules("cli")


def _private(name: str) -> bool:
    # a module's underscore names are its own; submodules such as
    # _kernels and dunder names such as __version__ are not such names
    return name.startswith("_") and not name.endswith("__") and name not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_imported_from_another_module(module):
    private = [
        (source, alias.name)
        for source, aliases in _from_imports(module)
        for alias in aliases
        if _private(alias.name)
    ]
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_read_from_another_module(module):
    # the same rule for attribute reads such as spectrum._name, through
    # every name module binds to a bogoflow module
    bound = {
        alias.asname or alias.name
        for source, aliases in _from_imports(module)
        if source == "__init__"
        for alias in aliases
        if alias.name in MODULES
    }
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(
                alias.asname for alias in node.names if alias.asname and alias.name.startswith("bogoflow.")
            )
    private = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound and _private(node.attr)
    ]
    assert private == []


@pytest.mark.parametrize("module", ["oracle", "spectrum"])
def test_no_module_level_eigensolve_cache(module):
    # the oracle keeps a solve on the matrix object it solved; a cache keyed
    # on parameters would hand a perturbed copy the unperturbed answer
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None))
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert names & {"functools", "cache", "lru_cache", "cached_property"} == set()


def _call_arguments(path: Path):
    """(called name, positional count, keyword names) of every call in
    path; a *args call counts as passing every position, a **kwargs call
    every keyword (None in the names)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield name, math.inf if starred else len(node.args), {kw.arg for kw in node.keywords}


def _caller_sources():
    # the package, the demos and the benchmark harness, its tests excluded
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [path for path in sources if not path.name.startswith("test_")]


def test_every_exported_function_has_a_caller_outside_the_tests():
    # callers: the package, the demos, the benchmark harness and the README
    import bogoflow

    called = {name for path in _caller_sources() for name, _, _ in _call_arguments(path)}
    called.update(re.findall(r"(\w+)\(", (ROOT / "README.md").read_text()))
    functions = {name for name in bogoflow.__all__ if inspect.isfunction(getattr(bogoflow, name))}
    assert functions - called == set()


def _library_functions():
    # the public functions the library modules define; verify and cli stay
    # out, as the acceptance tests pass their grids denser than the battery
    for module in ("model", "flow", "spectrum", "groundstate", "oracle", "sequences", "_kernels"):
        namespace = importlib.import_module(f"bogoflow.{module}")
        for name, function in vars(namespace).items():
            if inspect.isfunction(function) and function.__module__ == namespace.__name__ and not name.startswith("_"):
                yield name, function


def test_every_defaulted_parameter_is_passed_by_a_caller_outside_the_tests():
    # a default that no caller overrides is a constant, not a parameter;
    # callers as above, the README excluded
    calls = {}
    for path in _caller_sources():
        for name, positional, keywords in _call_arguments(path):
            calls.setdefault(name, []).append((positional, keywords))
    never = []
    for name, function in _library_functions():
        for index, param in enumerate(inspect.signature(function).parameters.values()):
            passed = any(
                positional > index or param.name in keywords or None in keywords
                for positional, keywords in calls.get(name, ())
            )
            if param.default is not param.empty and not passed:
                never.append(f"{name}({param.name}=)")
    assert never == []
