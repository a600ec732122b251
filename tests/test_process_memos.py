"""Every process memo of figurate keeps the contract memo_table states
for it, and memo_table.MEMOS lists them all: in a fresh interpreter, the
module-level dicts of figurate that are empty at import are exactly the
ones MEMOS names. A memo added later therefore needs one entry in MEMOS,
which conftest empties around every test and CI checks at its scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import memo_table

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


def test_fixture_clears_every_memo_empty_at_import():
    done = subprocess.run(
        [sys.executable, "-c", _EMPTY_DICTS],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert set(done.stdout.split()) == set(memo_table.MEMOS)


@pytest.mark.parametrize("name", memo_table.MEMOS)
def test_sweep_cold_then_warm(name):
    memo_table.check_sweep(memo_table.MEMOS[name], memo_table.TIER1)


@pytest.mark.parametrize("name", memo_table.MEMOS)
def test_race_from_empty(name):
    memo_table.check_race(memo_table.MEMOS[name])
