"""Rules that every module of the package keeps."""

import ast
from pathlib import Path

import galois_trees

PACKAGE = Path(galois_trees.__file__).resolve().parent


def test_package_has_no_assert_statements():
    """Invariants raise explicitly, so that they still run under ``python -O``."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_function_level_imports():
    """Every import sits at module level, where the import graph shows it."""
    found = sorted({
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in PACKAGE.rglob("*.py")
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })
    assert found == []
