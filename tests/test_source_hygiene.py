"""Static checks that each package module's imports, __all__ and private
names agree with its code.

Deleting a function tends to leave its imports behind, its name in the
module's __all__, or a private helper only it called; the checks read the
source with ast, so they run without importing anything.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "framecache"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """The names every import statement in the module binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def defined_names(tree):
    """The names the module's top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def read_names(tree):
    """The names the module loads, and the attribute names it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    unused = imported_names(tree) - used_names(tree) - exported_names(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_export_exists(path):
    tree = ast.parse(path.read_text())
    missing = exported_names(tree) - defined_names(tree) - imported_names(tree)
    assert not missing, f"{path.name} lists names in __all__ it does not define: {sorted(missing)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text())
    private = {name for name in defined_names(tree) if name.startswith("_") and not name.startswith("__")}
    unread = private - read_names(tree)
    assert not unread, f"{path.name} defines private names it never reads: {sorted(unread)}"
