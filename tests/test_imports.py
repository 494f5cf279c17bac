"""Every name a package module imports is used or re-exported."""

import ast
import pathlib

import pytest

import c0ip_control

MODULES = sorted(path for path in
                 pathlib.Path(c0ip_control.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of ``source`` that the module never
    references and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import csv\nimport os.path\nimport numpy as np\n"
              "from .io import write_csv, write_vtk\n"
              "__all__ = ['write_vtk']\n"
              "np.zeros(os.path.sep)\n")
    assert unused_imports(source) == [(2, "csv"), (5, "write_csv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
