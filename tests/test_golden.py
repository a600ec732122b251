"""Golden-output test: a fixed corpus of CLI invocations and their exact stdout.

Every entry runs in-process through figurate.cli.main and must reproduce
the recorded exit code and stdout byte for byte. A refactor must leave
this file's data untouched; an intended change of behaviour re-records
it and names the changed entries in CHANGES.md.

Re-record with: PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from figurate import cli, coefficients

DATA = Path(__file__).with_name("golden_cli.json")

# Spelled out rather than read from the library's tables, so the corpus
# stays fixed when a table changes.
_ROUTES = ("closed", "enum_k", "enum_j", "recurrence", "decompose", "eulerian2", "alternating")
_FAMILIES = ("stirling1", "stirling2", "eulerian1", "eulerian2")
_FORMULAS = ("brute", "eq5", "stir", "euler", "alt3", "faulhaber", "ml1-power")
_FORMATS = ("plain", "csv", "json")

#: (argv, route function replaced by a wrong one or None). The broken
#: route gives the exit-1 entries: a disagreement, not a usage error.
CORPUS = (
    [(f"coeff --p 7 --ell 3 --route {r}", None) for r in _ROUTES]
    + [
        ("coeff --p 9 --ell 5", None),
        ("coeff --p 6 --ell 2 --route all", None),
        ("coeff --p 6 --ell 2 --route eulerian2 --route closed", None),
        ("coeff --p 1 --ell 0 --route decompose --route alternating", None),
        ("coeff --p 20 --ell 3 --route enum_k", None),
        ("coeff --p 20 --ell 3 --route decompose --size-guard 20", None),
        ("coeff --p 5 --ell 5", None),
        ("coeff --p 0 --ell 0", None),
        ("coeff --p 3 --ell 1 --route nope", None),
        ("coeff --p 1000 --ell 1 --route enum_k --size-guard 2000", None),
    ]
    + [(f"triangle --pmax 6 --format {f}", None) for f in _FORMATS]
    + [(f"triangle --pmax 5 --route {r}", None) for r in _ROUTES]
    + [
        (f"triangle --pmax 6 --family {fam} --format {f}", None)
        for fam in _FAMILIES
        for f in _FORMATS
    ]
    + [
        ("triangle --pmax 0", None),
        ("triangle --pmax 0 --family eulerian1", None),
        ("triangle --pmax 15 --route enum_k", None),
        ("triangle --pmax 14 --route enum_j --format csv", None),
        ("certify --p 9 --ell 5", None),
        ("certify --p 16 --ell 3", None),
        ("certify --p 4 --ell 4", None),
        ("certify --p 6 --ell 2", "c_alternating"),
        ("verify --pmax 5 --suite coeff", "c_decompose"),
        ("tuples --p 5 --ell 2", None),
        ("tuples --kind j --p 9 --ell 5", None),
        ("tuples --kind k --p 9 --ell 5 --count-only", None),
        ("tuples --kind comp --total 7 --parts 2 --min-part 2", None),
        ("tuples --kind comp --total 12 --parts 4 --count-only", None),
        ("tuples --kind comp --total 5 --parts 0", None),
        ("tuples --kind j --p 5", None),
        ("tuples --kind comp --total 1800 --parts 900 --min-part 2", None),
        ("tuples --kind k --p 901 --ell 1 --count-only", None),
        ("tuples --kind j --p 901 --ell 1 --count-only", None),
        ("tuples --kind comp --total 3000 --parts 1500 --min-part 2", None),
        ("tuples --kind k --p 1500 --ell 1", None),
    ]
    + [(f"fermat --p 5 --format {f}", None) for f in _FORMATS]
    + [(f"fermat --p 5 --inverse --format {f}", None) for f in _FORMATS]
    + [(f"powersum --p 4 --n 10 --formula {f}", None) for f in _FORMULAS]
    + [(f"powersum --p 5 --symbolic --formula {f}", None) for f in _FORMULAS]
    + [
        ("powersum --p 6 --n 7 --formula euler --format json", None),
        ("powersum --p 6 --n 7 --formula eq5 --format csv", None),
        ("powersum --p 4 --symbolic --formula stir --format csv", None),
        ("powersum --p 4 --symbolic --formula alt3 --format json", None),
        ("powersum --p 3 --n 0 --formula ml1-power", None),
        ("powersum --p 3 --n 0 --formula eq5", None),
        ("powersum --p 3 --n -1 --formula stir", None),
        ("powersum --p 3 --n -1 --formula ml1-power", None),
        ("powersum --p 3", None),
        ("powersum --p 1 --n 4 --formula faulhaber", None),
        ("powersum --p 12 --symbolic --formula faulhaber --format json", None),
        ("powersum --p 11 --n 50 --formula faulhaber", None),
        ("faulhaber --p 2", None),
        ("faulhaber --p 7", None),
        ("faulhaber --p 30", None),
        ("faulhaber --p 1", None),
        ("verify --pmax 6", None),
        ("verify --pmax 5 --size-guard 3", None),
        ("verify --pmax 8 --suite powersum --suite fermat", None),
        ("verify --pmax 0", None),
        ("--version", None),
        ("verify --pmax 3 --suite nope", None),
        ("powersum --p 3 --n 2 --formula nope", None),
        ("triangle --pmax 3 --family nope", None),
        ("coeff --p 5 --ell 2 --size-guard 0", None),
        ("verify --pmax 3 --size-guard -1", None),
        ("tuples --kind comp --total 5", None),
    ]
)


def run(argv: str, broken: str | None) -> tuple[int, str]:
    """Exit code and stdout of one CLI invocation, run in-process."""
    out = io.StringIO()
    saved = getattr(coefficients, broken) if broken else None
    if broken:
        setattr(coefficients, broken, lambda p, x: 0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(shlex.split(argv))
            except SystemExit as exc:  # argparse: --version and usage errors
                code = exc.code
    finally:
        if broken:
            setattr(coefficients, broken, saved)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {(e["argv"], e["broken"]): e for e in json.loads(DATA.read_text())["entries"]}


def test_corpus_matches_recording(recorded):
    assert list(recorded) == list(CORPUS)


@pytest.mark.parametrize("argv, broken", CORPUS, ids=[a for a, _ in CORPUS])
def test_golden(argv, broken, recorded, monkeypatch):
    monkeypatch.delenv("FIGURATE_SIZE_GUARD", raising=False)
    entry = recorded[(argv, broken)]
    assert run(argv, broken) == (entry["exit"], entry["stdout"])


if __name__ == "__main__":
    os.environ.pop("FIGURATE_SIZE_GUARD", None)
    entries = []
    for argv, broken in CORPUS:
        code, stdout = run(argv, broken)
        entries.append({"argv": argv, "broken": broken, "exit": code, "stdout": stdout})
    DATA.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
    print(f"recorded {len(entries)} entries to {DATA}", file=sys.stderr)
