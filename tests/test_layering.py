"""Import rules between the package's modules, read from their source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bogoflow"
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


def test_groundstate_runs_no_eigensolve():
    # the expansion reads the sector's matrix elements only; the oracle's
    # solvers and its whole-sector build belong to the callers that compare
    solvers = {"lowest_eigenpair", "low_spectrum", "build_sector_hamiltonian"}
    names = {alias.name for source, aliases in _from_imports("groundstate") for alias in aliases}
    tree = ast.parse((PACKAGE / "groundstate.py").read_text())
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    assert names & solvers == set()


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
