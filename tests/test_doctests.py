import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import galois_trees
from galois_trees.cli import main

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


def test_readme_commands_run(monkeypatch):
    """Every ``galois-trees`` line of the README's "Command line" block exits 0
    when run from the repository root."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["galois-trees"]]
    assert len(commands) == len(block.splitlines())
    monkeypatch.chdir(README.parent)
    for args in commands:
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
