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


def test_frozen_objects_are_written_only_by_their_own_init():
    """``object.__setattr__`` gets round a frozen class, so it may only set an
    attribute of ``self`` inside ``__init__``, as the immutable algebra values
    do; no module writes a field of another module's object."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        inits = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "__init__"
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
            ):
                target = node.args[0] if node.args else None
                on_self = isinstance(target, ast.Name) and target.id == "self"
                if id(node) not in inits or not on_self:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_schema_literal_is_written_once():
    """Every document carries ``specfile.SCHEMA``; no other module spells it out."""
    found = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "galois-trees/1" in path.read_text(encoding="utf-8")
    ]
    assert found == ["specfile.py"]


# Public names that nothing in the package or the benchmark calls yet, each
# kept for the ROADMAP item that gives it a caller.
UNCALLED_PUBLIC = frozenset({
    "pushforward_jacobian",  # item 7: a `pushforward` command
    "zeta_leading_at_one",  # item 6: the zeta identity's cross-check at s = 1
    "l_leading_at_one",  # item 6: the zeta identity's cross-check at s = 1
})


def _referenced(tree, skip=()) -> set[str]:
    """Names a tree uses as an ``ast.Name`` or ``ast.Attribute``, leaving out
    the nodes inside the definitions in ``skip``."""
    skipped = {id(node) for definition in skip for node in ast.walk(definition)}
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skipped
    }


def _is_click_command(definition) -> bool:
    for decorator in definition.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("command", "group"):
            return True
    return False


def _package_modules() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _benchmark_modules() -> list[ast.Module]:
    """The benchmark's modules (``perfbench/``), its tests aside."""
    bench = PACKAGE.parent.parent / "perfbench"
    trees = [
        ast.parse(p.read_text(encoding="utf-8"), str(p))
        for p in bench.rglob("*.py")
        if "tests" not in p.relative_to(bench).parts
    ]
    assert trees
    return trees


def _used_by_other_modules(modules) -> dict[Path, set[str]]:
    """For each package module, the names the other package modules use;
    ``__init__.py`` re-exports do not count."""
    by_module = {path: _referenced(tree) for path, tree in modules.items()}
    return {
        path: set().union(*(
            names for other, names in by_module.items()
            if other != path and other.name != "__init__.py"
        ))
        for path in modules
    }


def test_every_public_definition_has_a_caller():
    """The package is the verifier: every public module-level function or
    class is used by another package module (``__init__.py`` re-exports do
    not count), by its own module outside its own body, or by the benchmark
    (``perfbench/``, its tests aside).  What only tests call belongs in
    ``tests/oracles.py``."""
    modules = _package_modules()
    outside = set().union(*map(_referenced, _benchmark_modules()))
    others = _used_by_other_modules(modules)
    uncalled = []
    for path, tree in modules.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name.startswith("_") or _is_click_command(definition):
                continue
            if name in others[path] or name in outside or name in _referenced(tree, [definition]):
                continue
            uncalled.append(name)
    assert sorted(uncalled) == sorted(UNCALLED_PUBLIC)


def test_every_public_method_has_a_caller():
    """The same rule for the methods and properties of package classes:
    every public one is referenced outside its own body, by its own module,
    another package module or the benchmark, where a string constant counts
    too, since the tracer binds a method such as ``exact_divide`` by name.
    What only tests call becomes a test helper.

    The rule goes by name, so a method shares the callers of every other
    definition of its name: ``CycInt.root`` hid a ``Graph.root``, and
    ``AbelianGroup.zero`` a ``MultiPoly.zero``, neither of which had a
    caller.  Dunders are left out; which arithmetic dunders the package
    needs is ROADMAP item 12's question."""
    modules = _package_modules()
    bench = _benchmark_modules()
    outside = set().union(*map(_referenced, bench)) | {
        node.value
        for tree in bench
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    others = _used_by_other_modules(modules)
    uncalled = []
    for path, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                name = method.name
                if name in others[path] or name in outside or name in _referenced(tree, [method]):
                    continue
                uncalled.append(f"{cls.name}.{name}")
    assert uncalled == []


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
