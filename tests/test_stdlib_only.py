"""The library imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "figurate"
MODULES = sorted(SRC.glob("*.py"))


def top_level_imports(source: str) -> set[str]:
    """Top-level module names of every absolute import in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_modules_found():
    assert {"__init__.py", "cli.py", "coefficients.py"} <= {p.name for p in MODULES}


def test_detects_a_third_party_import():
    source = "import json\nfrom numpy.linalg import solve\nfrom . import exact\n"
    assert top_level_imports(source) == {"json", "numpy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only(path):
    outside = top_level_imports(path.read_text()) - set(sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {sorted(outside)}"
