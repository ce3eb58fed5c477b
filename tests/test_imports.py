"""Every module-level import of the package is used: no linter is installed
alongside it, so this walks each module's syntax tree with `ast`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "steklov_annulus"


def imported_names(tree):
    """The names the module-level imports bind, with their line numbers,
    those under `if` and `try` at module level included; `from __future__`
    binds nothing."""
    bound = []
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, (ast.If, ast.Try)):
            statements.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            statements.extend(node.body)
        elif isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return bound


def used_names(tree):
    """Every name the module reads, in code or in annotations, string
    annotations included, and every name listed in `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    used |= used_names(ast.parse(annotation.value, mode="eval"))
        elif (isinstance(node, ast.Assign) and node in tree.body
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree) if name not in used)


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_every_module_level_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_check_reports_unused_and_keeps_used_imports():
    """The check names an import nothing reads and keeps one read only in
    a string annotation, a name exported by `__all__` and a submodule
    import read through its attributes."""
    source = '''
from __future__ import annotations
import functools
import os.path
from typing import TYPE_CHECKING
from .a import exported, unused

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["exported"]


def f(x: "sp.coo_array"):
    return os.path.join(x)
'''
    assert unused_imports(source) == [(3, "functools"), (6, "unused")]


def is_sparse_constructor(name):
    """coo_array, coo_matrix and every csr_* and csc_* name of scipy.sparse."""
    return name in ("coo_array", "coo_matrix") or name.startswith(("csr_", "csc_"))


def sparse_constructors(source, allowed=()):
    """The scipy.sparse matrix constructors the source names, as (line,
    name), outside the functions named in allowed: attribute reads such as
    `sp.coo_array`, bare names and `from scipy.sparse import` aliases."""
    tree = ast.parse(source)
    skipped = {id(node) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef) and function.name in allowed
               for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = []
        found += [(node.lineno, name) for name in names if is_sparse_constructor(name)]
    return sorted(found)


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_sparse_matrix_outside_union_matrix(module):
    """The package applies K + M_∂ and M_bb by their ring stencils; the one
    sparse matrix it can build is the COO layout of `fem._union_matrix`."""
    allowed = ("_union_matrix",) if module == "fem.py" else ()
    assert sparse_constructors((PACKAGE / module).read_text(), allowed) == []


def test_sparse_check_reports_constructors():
    """The check names a constructor read as an attribute, imported by name
    or called bare, and passes over one inside an allowed function."""
    source = '''
import scipy.sparse as sp
from scipy.sparse import csc_array


def _union_matrix(a):
    return sp.coo_array(a)


def boundary_mass(a):
    return sp.csr_matrix(csc_array(a))
'''
    assert sparse_constructors(source, ("_union_matrix",)) == [
        (3, "csc_array"), (11, "csc_array"), (11, "csr_matrix")]
    assert sparse_constructors(source) == [
        (3, "csc_array"), (7, "coo_array"), (11, "csc_array"), (11, "csr_matrix")]
