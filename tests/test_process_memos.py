"""tests/conftest.py::empty_process_memos clears every process memo: in a
fresh interpreter, the module-level dicts of figurate that are empty at
import are exactly the ones the fixture names. A route memo added later
therefore cannot be left out of the fixture."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports every figurate module and prints "module.name" for each of its
# module-level dicts that is empty.
_EMPTY_DICTS = """
import importlib, pkgutil, figurate
for info in pkgutil.iter_modules(figurate.__path__):
    module = importlib.import_module("figurate." + info.name)
    for name, value in vars(module).items():
        if isinstance(value, dict) and not value:
            print(f"{info.name}.{name}")
"""


def fixture_memos() -> set[str]:
    """The "module.name" of every memo in the tuple `memos` that
    empty_process_memos clears, read from the source."""
    tree = ast.parse(ROOT.joinpath("tests", "conftest.py").read_text())
    fixture = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "empty_process_memos"
    )
    memos = next(
        node.value
        for node in ast.walk(fixture)
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "memos"
    )
    return {ast.unparse(element) for element in memos.elts}


def test_fixture_clears_every_memo_empty_at_import():
    done = subprocess.run(
        [sys.executable, "-c", _EMPTY_DICTS],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    cleared = fixture_memos()
    assert cleared
    assert set(done.stdout.split()) == cleared
