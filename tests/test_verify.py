"""The verify runner: suite dispatch and the fixed-range powersum checks."""

from fractions import Fraction

import pytest

from figurate import powersum, verify
from figurate.verify import SUITES, CheckResult, run_suites


def _status(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check.status


@pytest.mark.parametrize("suite", SUITES)
def test_runs_replaced_suite(suite, monkeypatch):
    # A _<suite>_checks replaced on the module is the one run_suites calls.
    seen = []

    def stand_in(results, pmax, size_guard):
        seen.append((pmax, size_guard))
        results.append(CheckResult(suite, "stand-in", "pass"))

    monkeypatch.setattr(verify, f"_{suite}_checks", stand_in)
    report = run_suites([suite], 3, 7)
    assert seen == [(3, 7)]
    assert [(c.suite, c.name) for c in report.checks] == [(suite, "stand-in")]


def test_faulhaber_nonzero_covers_p12_at_small_pmax(monkeypatch):
    real = powersum.faulhaber_coefficients

    def planted(p):
        return (Fraction(0),) + real(p)[1:] if p == 12 else real(p)

    monkeypatch.setattr(powersum, "faulhaber_coefficients", planted)
    report = run_suites(["powersum"], 5, 14)
    assert _status(report, "faulhaber coefficients nonzero p<=12") == "fail"
    assert report.failed == 1


def test_eulerian_symmetry_covers_p12_at_small_pmax(monkeypatch):
    real = powersum.representation

    def planted(tag, p):
        rep = real(tag, p)
        if (tag, p) != ("alt2", 12):
            return rep
        (c, dim, shift), *rest = rep.terms
        return powersum.Representation(tag, p, ((c + 1, dim, shift), *rest))

    monkeypatch.setattr(powersum, "representation", planted)
    report = run_suites(["powersum"], 5, 14)
    assert _status(report, "eulerian coefficient symmetry p<=12") == "fail"
    assert report.failed == 1
