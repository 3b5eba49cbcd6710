"""Rules that every module of the package keeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import galois_trees

PACKAGE = Path(galois_trees.__file__).resolve().parent

# The top-level modules that importing ``galois_trees.cli`` loads, recorded
# from a bare interpreter (``python -I -S``) when this test was written.
CLI_IMPORTS = frozenset({
    "ast", "click", "cmath", "collections", "contextlib", "copy", "copyreg",
    "dataclasses", "datetime", "decimal", "dis", "enum", "errno", "fractions",
    "functools", "galois_trees", "genericpath", "gettext", "importlib",
    "inspect", "itertools", "json", "keyword", "linecache", "locale", "math",
    "numbers", "opcode", "operator", "os", "platform", "posixpath", "re",
    "reprlib", "stat", "threading", "token", "tokenize", "types", "typing",
    "uuid", "warnings", "weakref",
})


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


def test_cli_import_loads_no_new_module():
    """Start-up time is mostly import time, and what the package imports is
    the part of it the package controls: a fresh interpreter importing the
    CLI may load no top-level module beyond ``CLI_IMPORTS``."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import galois_trees.cli\n"
        "print(' '.join({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    loaded = {m for m in result.stdout.split() if not m.startswith("_")}
    assert "galois_trees" in loaded and "click" in loaded
    assert loaded <= CLI_IMPORTS, sorted(loaded - CLI_IMPORTS)
