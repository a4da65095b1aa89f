"""Import rules between the package's modules, read from their source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bogoflow"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _from_imports(module: str):
    """(source, names) of every from-import in module whose source is a
    bogoflow module; the package itself is the source "__init__"."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            dotted = node.module or ""
            if node.level == 0:
                if dotted != "bogoflow" and not dotted.startswith("bogoflow."):
                    continue
                dotted = dotted[len("bogoflow") :].lstrip(".")
            yield dotted or "__init__", [alias.name for alias in node.names]


def _imported_modules(module: str) -> set:
    """The bogoflow modules that module imports, by any import form."""
    found = set()
    for source, names in _from_imports(module):
        found.add(source)
        if source == "__init__":
            found.update(name for name in names if name in MODULES)
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


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_imported_from_another_module(module):
    # a module's underscore names are its own; submodules such as
    # _kernels and dunder names such as __version__ are not such names
    private = [
        (source, name)
        for source, names in _from_imports(module)
        for name in names
        if name.startswith("_") and not name.endswith("__") and name not in MODULES
    ]
    assert private == []
