import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import galois_trees

README = Path(__file__).resolve().parent.parent / "README.md"


def test_doctests():
    attempted = 0
    for info in pkgutil.walk_packages(galois_trees.__path__, "galois_trees."):
        module = importlib.import_module(info.name)
        failures, tried = doctest.testmod(module)
        assert failures == 0, info.name
        attempted += tried
    assert attempted


def test_readme_python_example():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
