"""Every name a module of the package imports is used in it. No linter is
a dependency, so the check walks each module's syntax tree."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pathrec"


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that `source` never uses as a
    name, lists in `__all__` or names in a string annotation. Imports from
    `__future__` and lines marked `# noqa: F401` (re-exports) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [(node.lineno, (alias.asname or alias.name).split(".")[0])
                     for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_check_sees_each_form():
    source = ('from __future__ import annotations\n'
              'import os, sys\n'
              'import numpy as np\n'
              'from . import core\n'
              'from .core import A, B  # noqa: F401\n'
              'from .x import C, D, E\n'
              '__all__ = ["C"]\n'
              'def f(a: "D") -> np.ndarray:\n'
              '    return os.sep\n')
    assert unused_imports(source) == [(2, "sys"), (4, "core"), (6, "E")]
