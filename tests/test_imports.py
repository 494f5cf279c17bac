"""Every name a package module imports is used or re-exported, every
name a function binds is read, every private module-level name is
referenced, no function writes into module-level state, no dataclass field
defaults to an empty dict or list, and the command line loads only the
SciPy subpackages it uses."""

import ast
import os
import pathlib
import subprocess
import sys

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of ``func``'s body outside its nested functions and
    classes, whose names live in scopes of their own."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source):
    """Names that a function of ``source`` binds and never reads, itself
    or in a function nested in it; names starting with ``_`` are exempt."""
    unused = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, shared = {}, set()
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        read = {node.target.id for node in ast.walk(func)
                if isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)}
        read.update(node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))
        unused.update((line, name) for name, line in bound.items()
                      if name not in read | shared
                      and not name.startswith("_"))
    return sorted(unused)


def test_scan_sees_an_unused_local():
    source = ("def f(a):\n"
              "    n, k = a.shape\n"
              "    free = a.free\n"
              "    _, m = a.pair\n"
              "    total = 0\n"
              "    def g():\n"
              "        return n + m\n"
              "    for i in range(3):\n"
              "        total += 1\n"
              "    return g, [j for j in a]\n")
    assert unused_locals(source) == [(2, "k"), (3, "free"), (8, "i")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def dead_private_names(sources):
    """Module-level private functions, classes and constants of the
    ``sources`` (module name -> source) that no module references, as
    (module, line, name); dunder names are exempt."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined.extend((module, node.lineno, name) for name in names
                           if name.startswith("_")
                           and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_scan_sees_a_dead_private_name():
    sources = {
        "mesh": ("_GEOM_TOL = 1e-9\n"
                 "_SCALE, __tag__ = 2.0, 'x'\n"
                 "def _orient(t):\n"
                 "    return t\n"
                 "class _Cache:\n"
                 "    pass\n"
                 "def _split(n):\n"
                 "    return n * _SCALE\n"
                 "def make(n):\n"
                 "    return _split(n)\n"),
        "fem": ("from .mesh import _Cache\n"
                "_TABLE = {}\n"
                "def rule(m):\n"
                "    return m._TABLE\n"),
    }
    assert dead_private_names(sources) == [("mesh", 1, "_GEOM_TOL"),
                                           ("mesh", 3, "_orient")]


def test_no_dead_private_names():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert dead_private_names(sources) == []


def _module_names(tree):
    """Names that the top level of a module binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def global_writes(source):
    """(line, name) of each write by a function of ``source`` into a
    module-level name: an assignment to a subscript or attribute of it
    that no local name shadows, or a ``global`` rebinding. Such writes
    keep state across calls (a memo), so one call can change another's
    result."""
    tree = ast.parse(source)
    module_names = _module_names(tree)
    writes = set()

    def visit(func, outer):
        nodes = list(_own_nodes(func))
        args = func.args
        local = {a.arg for a in args.posonlyargs + args.args
                 + args.kwonlyargs + [args.vararg, args.kwarg] if a}
        local.update(n.id for n in nodes if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store))
        for node in nodes:
            if isinstance(node, ast.Global):
                writes.update((node.lineno, name) for name in node.names)
                local.difference_update(node.names)
        shadowed = outer | local
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node, shadowed)
            if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for sub in (n for t in targets for n in ast.walk(t)):
                if not (isinstance(sub, (ast.Subscript, ast.Attribute))
                        and isinstance(sub.ctx, ast.Store)):
                    continue
                root = sub.value
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                if (isinstance(root, ast.Name) and root.id in module_names
                        and root.id not in shadowed):
                    writes.add((node.lineno, root.id))

    for scope in ast.walk(tree):
        if isinstance(scope, (ast.Module, ast.ClassDef)):
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(node, set())
    return sorted(writes)


def test_scan_sees_a_global_write():
    source = ("import numpy as np\n"
              "_MEMO = {'base': None}\n"
              "_COUNT = 0\n"
              "def memo(t, _MEMO=None):\n"
              "    _MEMO['hit'] = t\n"
              "def store(t):\n"
              "    _MEMO['base'], seen = t, 1\n"
              "    hit = _MEMO['trig'][id(t)] = t\n"
              "    np.cache = t\n"
              "    return hit, seen\n"
              "def count():\n"
              "    global _COUNT\n"
              "    _COUNT += 1\n"
              "class Holder:\n"
              "    def put(self, t):\n"
              "        self.items = {}\n"
              "        self.items[id(t)] = t\n"
              "        def inner(self):\n"
              "            _MEMO[0] = self\n"
              "        return inner\n"
              "def local(t):\n"
              "    _COUNT = {}\n"
              "    _COUNT[t] = 1\n"
              "    return _COUNT\n")
    assert global_writes(source) == [(7, "_MEMO"), (8, "_MEMO"), (9, "np"),
                                     (12, "_COUNT"), (19, "_MEMO")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_global_writes(path):
    assert global_writes(path.read_text()) == []


def _is_name(node, name):
    """``node`` is ``name`` or ``<module>.name``."""
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def mutable_default_fields(source):
    """(line, "Class.field") of each dataclass field of ``source`` whose
    default factory is ``dict`` or ``list``: a container that the instance
    fills after it is made, which is how a per-object memo starts."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not any(
                _is_name(d.func if isinstance(d, ast.Call) else d,
                         "dataclass") for d in cls.decorator_list):
            continue
        for node in cls.body:
            value = node.value if isinstance(node, ast.AnnAssign) else None
            if not (isinstance(value, ast.Call)
                    and _is_name(value.func, "field")):
                continue
            if any(kw.arg == "default_factory"
                   and (_is_name(kw.value, "dict")
                        or _is_name(kw.value, "list"))
                   for kw in value.keywords):
                found.append((node.lineno,
                              "%s.%s" % (cls.name, node.target.id)))
    return sorted(found)


def test_scan_sees_a_mutable_default_field():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class Geometry:\n"
              "    det: object\n"
              "    _points: dict = field(default_factory=dict, init=False)\n"
              "    rule: tuple = field(default_factory=tuple)\n"
              "@dataclasses.dataclass\n"
              "class History:\n"
              "    name: str = field(default='x')\n"
              "    records: list = dataclasses.field(default_factory=list)\n"
              "class Plain:\n"
              "    cache: dict = field(default_factory=dict)\n")
    assert mutable_default_fields(source) == [(6, "Geometry._points"),
                                              (11, "History.records")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_mutable_default_fields(path):
    assert mutable_default_fields(path.read_text()) == []


# SciPy subpackages that no module of the package uses; each one adds to
# the import time of every run (``setup_s`` in the benchmark)
UNUSED_SCIPY = ("scipy.special", "scipy.optimize", "scipy.integrate",
                "scipy.interpolate", "scipy.stats", "scipy.spatial")


def test_cli_import_loads_no_unused_scipy_subpackage():
    src = os.path.dirname(os.path.dirname(c0ip_control.__file__))
    code = ("import sys, c0ip_control.cli; "
            "print(' '.join(m for m in %r if m in sys.modules))"
            % (UNUSED_SCIPY,))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == []
