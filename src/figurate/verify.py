"""Self-verification suites behind the CLI `verify` subcommand.

Each suite re-derives the invariants its modules promise and compares
against frozen reference data (the coefficient triangle up to p = 9, the
order-5 transition matrices, the p = 8 expansion coefficients). A check
is pass, fail, or skipped; skipped means an enumerative check was
clipped by the size guard, never that it failed. SUITES is the only list
of suites: each one is run by `_<suite>_checks(results, pmax, size_guard)`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__, coefficients, combinatorics, enumeration, fermat, powersum
from .exact import Polynomial

SUITES = ("coeff", "enumeration", "fermat", "orthogonality", "powersum")

#: c(p, ell) for p = 1..9; the reference triangle the library must reproduce.
REFERENCE_TRIANGLE = (
    (1,),
    (2, 1),
    (6, 6, 1),
    (24, 36, 14, 1),
    (120, 240, 150, 30, 1),
    (720, 1800, 1560, 540, 62, 1),
    (5040, 15120, 16800, 8400, 1806, 126, 1),
    (40320, 141120, 191520, 126000, 40824, 5796, 254, 1),
    (362880, 1451520, 2328480, 1905120, 834120, 186480, 18150, 510, 1),
)

#: The order-5 transition matrix from powers to figurate numbers.
REFERENCE_FERMAT_5 = (
    ("1", "0", "0", "0", "0"),
    ("1/2", "1/2", "0", "0", "0"),
    ("1/3", "1/2", "1/6", "0", "0"),
    ("1/4", "11/24", "1/4", "1/24", "0"),
    ("1/5", "5/12", "7/24", "1/12", "1/120"),
)

#: Its exact inverse.
REFERENCE_INVERSE_5 = (
    (1, 0, 0, 0, 0),
    (-1, 2, 0, 0, 0),
    (1, -6, 6, 0, 0),
    (-1, 14, -36, 24, 0),
    (1, -30, 150, -240, 120),
)

#: Term lists (coefficient, dimension, shift) of the four expansions of
#: S_8(n), in each formula's own term order.
REFERENCE_SUM8_TERMS = {
    "eq5": (
        (40320, 9, 0),
        (-141120, 8, 0),
        (191520, 7, 0),
        (-126000, 6, 0),
        (40824, 5, 0),
        (-5796, 4, 0),
        (254, 3, 0),
        (-1, 2, 0),
    ),
    "alt1": (
        (1, 2, 0),
        (254, 3, -1),
        (5796, 4, -2),
        (40824, 5, -3),
        (126000, 6, -4),
        (191520, 7, -5),
        (141120, 8, -6),
        (40320, 9, -7),
    ),
    "alt2": (
        (1, 9, -7),
        (247, 9, -6),
        (4293, 9, -5),
        (15619, 9, -4),
        (15619, 9, -3),
        (4293, 9, -2),
        (247, 9, -1),
        (1, 9, 0),
    ),
    "alt3": (
        (1, 1, 0),
        (255, 2, -1),
        (6050, 3, -2),
        (46620, 4, -3),
        (166824, 5, -4),
        (317520, 6, -5),
        (332640, 7, -6),
        (181440, 8, -7),
        (40320, 9, -8),
    ),
}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    status: str  # pass | fail | skipped
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    suites: tuple[str, ...]
    pmax: int
    size_guard: int
    checks: tuple[CheckResult, ...]
    duration: float
    version: str = __version__

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.checks if c.status == "skipped")

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _check(results: list[CheckResult], suite: str, name: str, ok: bool, detail: str = "") -> None:
    results.append(CheckResult(suite, name, "pass" if ok else "fail", detail))


def _skip(results: list[CheckResult], suite: str, name: str, detail: str) -> None:
    results.append(CheckResult(suite, name, "skipped", detail))


# ---------------------------------------------------------------------------
# coeff suite
# ---------------------------------------------------------------------------

def _coeff_checks(results: list[CheckResult], pmax: int, guard: int) -> None:
    ref_rows = min(pmax, 9)
    got = coefficients.build_triangle(ref_rows, "closed").rows
    _check(
        results,
        "coeff",
        f"reference triangle rows 1..{ref_rows}",
        got == REFERENCE_TRIANGLE[:ref_rows],
    )

    for p in range(1, pmax + 1):
        run, skipped = coefficients.split_routes(coefficients.ROUTES, p, guard)
        reports = [coefficients.certify(p, ell, guard) for ell in range(p)]
        _check(
            results,
            "coeff",
            f"routes agree p={p}",
            all(r.agree for r in reports),
            f"{len(run)} routes, ell=0..{p - 1}",
        )
        if skipped:
            _skip(
                results,
                "coeff",
                f"enumerative routes p={p}",
                f"size guard {guard}",
            )

        row = coefficients.build_triangle(p).row(p)
        alternating = sum((-1) ** ell * c for ell, c in enumerate(row))
        _check(
            results,
            "coeff",
            f"row properties p={p}",
            row[0] == combinatorics.factorial(p)
            and row[-1] == 1
            and alternating == 1
            and all(c > 0 for c in row),
        )

        if p >= 2:
            expect_1 = Fraction(p - 1, 2) * combinatorics.factorial(p)
            ok = Fraction(row[1]) == expect_1
            if p >= 3:
                expect_2 = (
                    Fraction(1, 8)
                    * combinatorics.factorial(p)
                    * (p - 2)
                    * (Fraction(p) - Fraction(5, 3))
                )
                ok = ok and Fraction(row[2]) == expect_2
            _check(results, "coeff", f"closed sub-formulas p={p}", ok)

        brute = p <= 7
        ok = all(
            row[p - j] == combinatorics.surjection_count(p, j)
            and (not brute or row[p - j] == combinatorics.surjection_brute(p, j))
            for j in range(1, p + 1)
        )
        _check(
            results,
            "coeff",
            f"surjection identity p={p}",
            ok,
            "brute force included" if brute else "counting formula only",
        )

        if p >= 2:
            if p <= guard:
                _check(
                    results,
                    "coeff",
                    f"composition identity p={p}",
                    _composition_identity(p),
                )
                _check(
                    results,
                    "coeff",
                    f"summand counts p={p}",
                    _summand_counts(p),
                )
            else:
                _skip(results, "coeff", f"composition identity p={p}", f"size guard {guard}")
                _skip(results, "coeff", f"summand counts p={p}", f"size guard {guard}")


def _composition_identity(p: int) -> bool:
    """min-part-1 sum equals min-part-2 sum plus the part-1 weight W(p, j)."""
    for j in range(1, p):
        min1 = coefficients.composition_sum(p, p, j, 1)
        min2 = coefficients.composition_sum(p, p, j, 2)
        if min1 != min2 + coefficients.w_sum(p, j):
            return False
        if min1 != coefficients.c_decompose(p, p - j):
            return False
    return True


def _summand_counts(p: int) -> bool:
    for j in range(1, p):
        streamed = sum(
            combinatorics.binomial(j, t)
            * sum(1 for _ in enumeration.enumerate_compositions(p + t - j, t, 2))
            for t in range(1, j + 1)
        )
        if streamed != coefficients.summand_count(p, j):
            return False
        if streamed != combinatorics.binomial(p - 1, j - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration suite
# ---------------------------------------------------------------------------

def _enumeration_checks(results: list[CheckResult], pmax: int, guard: int) -> None:
    for p in range(1, pmax + 1):
        if p > guard:
            _skip(results, "enumeration", f"tuple families p={p}", f"size guard {guard}")
            continue
        _check(results, "enumeration", f"tuple families p={p}", _tuple_families(p))

    ok = all(
        sum(1 for _ in enumeration.enumerate_compositions(total, k, 1))
        == combinatorics.binomial(total - 1, k - 1)
        for total in range(1, 21)
        for k in range(1, 9)
    )
    _check(results, "enumeration", "composition counts T<=20", ok)


def _tuple_families(p: int) -> bool:
    for ell in range(p):
        k_tuples = list(enumeration.enumerate_k_tuples(p, ell))
        j_tuples = list(enumeration.enumerate_j_tuples(p, ell))
        if len(set(k_tuples)) != len(k_tuples) or len(set(j_tuples)) != len(j_tuples):
            return False
        if sorted(tuple(e + 1 for e in t) for t in k_tuples) != sorted(j_tuples):
            return False
        for t in k_tuples:
            s = enumeration.support(t)
            if enumeration.content(t) != ell or s != len(t) + ell + 1 - p:
                return False
            if any(t[i] > 0 and t[i + 1] > 0 for i in range(len(t) - 1)):
                return False
        for t in j_tuples:
            bigs = sum(1 for e in t if e >= 2)
            if sum(t) != ell + len(t) or len(t) != p + bigs - ell - 1:
                return False
            if any(t[i] >= 2 and t[i + 1] != 1 for i in range(len(t) - 1)):
                return False
        expected = combinatorics.binomial(p - 1, p - ell - 1)
        if len(k_tuples) != expected or len(j_tuples) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# fermat suite
# ---------------------------------------------------------------------------

def _fermat_checks(results: list[CheckResult], pmax: int, guard: int) -> None:
    for p in range(1, pmax + 1):
        _check(results, "fermat", f"inverse certified p={p}", fermat.certify_inverse(p))

        a = fermat.build_fermat(p)
        det = Fraction(1)
        for k in range(1, p + 1):
            det *= a.entry(k, k)
        expect = Fraction(1)
        for k in range(1, p + 1):
            expect /= combinatorics.factorial(k)
        _check(results, "fermat", f"determinant p={p}", det == expect and det != 0)

        inv = fermat.inverse_closed(p)
        ok = all(
            inv.entry(p, i) == (-1) ** (p - i) * coefficients.c_closed(p, p - i)
            for i in range(1, p + 1)
        )
        _check(results, "fermat", f"power-basis row p={p}", ok)

    for k in range(1, min(pmax, 12) + 1):
        poly = fermat.figurate_polynomial(k)
        a = fermat.build_fermat(k)
        coeff_ok = (
            poly.degree == k
            and poly.coefficients[0] == 0
            and tuple(poly.coefficients[1:]) == a.row(k)
        )
        eval_ok = all(
            poly(n) == combinatorics.binomial(n + k - 1, k) for n in range(1, 51)
        )
        _check(results, "fermat", f"figurate polynomial k={k}", coeff_ok and eval_ok)

    if pmax >= 5:
        a5 = fermat.build_fermat(5)
        inv5 = fermat.inverse_closed(5)
        ok = all(
            a5.entry(k, j) == Fraction(REFERENCE_FERMAT_5[k - 1][j - 1])
            and inv5.entry(k, j) == REFERENCE_INVERSE_5[k - 1][j - 1]
            for k in range(1, 6)
            for j in range(1, 6)
        )
        _check(results, "fermat", "reference matrices p=5", ok)


# ---------------------------------------------------------------------------
# orthogonality suite
# ---------------------------------------------------------------------------

def orthogonality_row(k: int, j_max: int) -> bool:
    """Both Stirling orthogonality relations for row k against all j <= j_max."""
    s1 = combinatorics.stirling1_unsigned
    s2 = combinatorics.stirling2
    for j in range(j_max + 1):
        delta = (-1) ** k if k == j else 0
        first = sum((-1) ** r * s1(k, r) * s2(r, j) for r in range(k + 1))
        second = sum((-1) ** r * s2(k, r) * s1(r, j) for r in range(k + 1))
        if first != delta or second != delta:
            return False
    return True


def _orthogonality_checks(results: list[CheckResult], pmax: int, guard: int) -> None:
    for k in range(pmax + 1):
        _check(
            results,
            "orthogonality",
            f"orthogonality row k={k}",
            orthogonality_row(k, pmax),
        )


# ---------------------------------------------------------------------------
# powersum suite
# ---------------------------------------------------------------------------

def _powersum_checks(results: list[CheckResult], pmax: int, guard: int) -> None:
    for p in range(1, min(pmax, 10) + 1):
        ok = True
        for n in range(101):
            brute = powersum.sum_brute(n, p)
            ok = (
                powersum.sum_eq5(n, p) == brute
                and powersum.sum_stirling(n, p) == brute
                and powersum.sum_eulerian(n, p) == brute
                and powersum.sum_variant(n, p) == brute
                and (p < 2 or powersum.faulhaber_eval(n, p) == brute)
            )
            if not ok:
                break
        power_ok = all(
            powersum.power_via_ml1(n, p) == n**p for n in range(1, 101)
        )
        _check(results, "powersum", f"pointwise agreement p={p}", ok and power_ok)

        expansions = [powersum.expand_symbolic(p, tag) for tag in ("eq5", "alt1", "alt2", "alt3")]
        if p >= 2:
            expansions.append(powersum.expand_symbolic(p, "faulhaber"))
        base = expansions[0]
        sym_ok = (
            all(e == base for e in expansions)
            and base.degree == p + 1
            and base.coefficients[0] == 0
            and powersum.expand_symbolic(p, "power_ml1") == Polynomial.monomial(p)
        )
        _check(results, "powersum", f"symbolic agreement p={p}", sym_ok)

    ok = all(
        powersum.figurate(n, k) == sum(powersum.figurate(i, k - 1) for i in range(1, n + 1))
        for k in range(2, 9)
        for n in range(0, 51)
    )
    _check(results, "powersum", "telescoping k<=8 n<=50", ok)

    ok = all(
        (powersum.figurate(n, k) == 0) == (-(k - 1) <= n <= 0)
        for k in range(1, 11)
        for n in range(-25, 26)
    )
    _check(results, "powersum", "figurate roots k<=10", ok)

    ok = True
    for p in range(1, 13):
        coeffs = [c for c, _, _ in powersum.representation("alt2", p).terms]
        if coeffs != coeffs[::-1]:
            ok = False
    _check(results, "powersum", "eulerian coefficient symmetry p<=12", ok)

    if pmax >= 8:
        ok = all(
            powersum.representation(tag, 8).terms == REFERENCE_SUM8_TERMS[tag]
            for tag in ("eq5", "alt1", "alt2", "alt3")
        )
        _check(results, "powersum", "reference expansions p=8", ok)

    if pmax >= 3:
        t_squared = powersum.expand_symbolic(3, "faulhaber")
        cube_ok = (
            powersum.faulhaber_coefficients(3) == (Fraction(1),)
            and t_squared == fermat.figurate_polynomial(2) * fermat.figurate_polynomial(2)
            and all(
                powersum.faulhaber_eval(n, 3) == powersum.figurate(n, 2) ** 2
                for n in range(51)
            )
        )
        _check(results, "powersum", "cube identity", cube_ok)

    ok = all(
        all(c != 0 for c in powersum.faulhaber_coefficients(p))
        for p in range(2, 13)
    )
    _check(results, "powersum", "faulhaber coefficients nonzero p<=12", ok)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_suites(suites: list[str], pmax: int, size_guard: int) -> VerifyReport:
    """Run the named suites (or all of them) up to pmax."""
    if pmax < 1:
        raise ValueError(f"pmax must be positive, got {pmax}")
    if size_guard < 1:
        raise ValueError(f"size guard must be positive, got {size_guard}")
    wanted = set(suites)
    if "all" in wanted:
        wanted = set(SUITES)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites {sorted(unknown)}; expected {SUITES + ('all',)}")

    start = time.monotonic()
    results: list[CheckResult] = []
    for suite in SUITES:  # fixed alphabetical order regardless of request order
        if suite in wanted:
            # Looked up at call time, so a replaced _<suite>_checks is the one run.
            globals()[f"_{suite}_checks"](results, pmax, size_guard)
    duration = time.monotonic() - start
    return VerifyReport(tuple(sorted(wanted)), pmax, size_guard, tuple(results), duration)
