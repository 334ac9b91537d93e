import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import lpindex

PACKAGE = Path(lpindex.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """The `from .module import _name` imports of one module, as "module._name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_private_imports_finds_a_private_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .core import DEFAULT_GRID_N, _prescan\nfrom . import cli\nfrom os import _exit\n")
    assert private_imports(mod) == ["core._prescan"]


def test_modules_import_no_private_names_of_each_other():
    found = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_every_public_name_resolves():
    assert [name for name in lpindex.__all__ if not hasattr(lpindex, name)] == []


def test_dataclasses_are_frozen():
    # README promises that dataclass results are frozen; __init__ only
    # re-exports and __main__ runs the CLI when imported
    modules = [importlib.import_module(f"lpindex.{path.stem}") for path in PACKAGE.glob("[!_]*.py")]
    thawed = [
        f"{mod.__name__}.{c.__name__}"
        for mod in modules
        for _, c in inspect.getmembers(mod, inspect.isclass)
        if c.__module__ == mod.__name__ and dataclasses.is_dataclass(c) and not c.__dataclass_params__.frozen
    ]
    assert thawed == []
