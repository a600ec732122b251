"""Golden-output test: the one corpus of recorded CLI stdout.

golden_cli.json is the corpus, and every entry runs here, in-process
through figurate.cli.main. No other file records a CLI stdout or its
digest. Each entry holds its argv, `broken` (the route function
replaced by a wrong one, or null; it gives the exit-1 entries, a
disagreement rather than a usage error), the exit code, and exactly
one of:

* stdout:  the exact stdout;
* sha256:  the sha256 of stdout, for outputs too large to store;
* same_as: a second argv whose stdout must be byte-identical; both must
  exit 0 and print something.

The sha256 entries were recorded from the code they guard: the two
`fermat --p 200` entries when every matrix entry was a Fraction; the
compositions from the two-part-tail odometer, where `--total 40
--parts 6` and `--total 400 --parts 3` have too much to spare for tail
blocks (lazy two-part tails), `--total 20 --parts 8` takes three-part
tail blocks behind five leading parts, and `--total 30 --parts 12
--min-part 2` six-part blocks behind six; the k- and j-tuples at
p = 18 from the recursive generators that built one frame per entry.

A refactor never re-records: it leaves the corpus untouched, and a
digest above all, since a re-recorded digest checks nothing. Only an
intended change of behaviour re-records, and names the changed entries
in CHANGES.md. A new entry is appended with an empty stdout or sha256,
then recorded.

Run every entry: PYTHONPATH=src python -m pytest tests/test_golden.py
Re-record with:  PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from figurate import cli, coefficients

DATA = Path(__file__).with_name("golden_cli.json")
ENTRIES = json.loads(DATA.read_text())["entries"]
OUTPUTS = {"stdout", "sha256", "same_as"}


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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(entry: dict) -> dict:
    """The entry re-recorded from the code as it now behaves."""
    if "same_as" in entry:
        return entry
    code, out = run(entry["argv"], entry["broken"])
    new = {"argv": entry["argv"], "broken": entry["broken"], "exit": code}
    if "sha256" in entry:
        new["sha256"] = sha256(out)
    else:
        new["stdout"] = out
    return new


def check(entry: dict) -> None:
    """Assert that the CLI still prints what the entry records."""
    code, out = run(entry["argv"], entry["broken"])
    assert code == entry["exit"]
    if "stdout" in entry:
        assert out == entry["stdout"]
    elif "sha256" in entry:
        assert sha256(out) == entry["sha256"]
    else:
        other_code, other = run(entry["same_as"], entry["broken"])
        assert code == other_code == 0
        assert out, "empty stdout"
        # Digests, so a failure prints two lines instead of a diff of MBs.
        assert sha256(out) == sha256(other)


def test_corpus_matches_recording():
    """Every entry is recorded in one of the three kinds, under its own argv."""
    assert len({e["argv"] for e in ENTRIES}) == len(ENTRIES)
    for entry in ENTRIES:
        assert entry.keys() - OUTPUTS == {"argv", "broken", "exit"}
        assert len(entry.keys() & OUTPUTS) == 1


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["argv"] for e in ENTRIES])
def test_golden(entry, monkeypatch):
    monkeypatch.delenv("FIGURATE_SIZE_GUARD", raising=False)
    check(entry)


def test_same_as_fails_on_different_stdout():
    entry = {"argv": "coeff --p 5 --ell 2", "broken": None, "exit": 0}
    with pytest.raises(AssertionError):
        check({**entry, "same_as": "coeff --p 5 --ell 3"})


def test_each_digest_recorded_once():
    """A digest lives in the corpus only, so no second copy can drift."""
    digests = [e["sha256"] for e in ENTRIES if "sha256" in e]
    assert len(set(digests)) == len(digests)
    root = Path(__file__).parent
    for path in [*root.glob("*.py"), *root.parent.glob(".github/workflows/*.yml")]:
        text = path.read_text()
        assert [d for d in digests if d in text] == [], path


if __name__ == "__main__":
    os.environ.pop("FIGURATE_SIZE_GUARD", None)
    entries = [record(entry) for entry in ENTRIES]
    DATA.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
    print(f"recorded {len(entries)} entries to {DATA}", file=sys.stderr)
