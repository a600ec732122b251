"""Self-verification suites behind the CLI `verify` subcommand.

Each suite re-derives the invariants its modules promise and compares
against frozen reference data (the coefficient triangle up to p = 9, the
order-5 transition matrices, the p = 8 expansion coefficients). A check
is pass, fail, or skipped; skipped means an enumerative check was
clipped by the size guard, never that it failed. SUITES is the only list
of suites: each one is run by `_<suite>_checks(pmax, size_guard)`, which
returns its lines in run order as `(name, ok)` or `(name, ok, detail)`.
ok is read for its truth, pass or fail, unless it is _SKIP, the marker
of a line the size guard clipped. run_suites alone writes the
CheckResults: it names each line's suite and gives every skipped line
the detail `size guard N` from the run's own guard.

The two-way cross-checks live here: a library function computes its
value one way and a suite computes the other side, so a mismatch fails
one check line instead of raising.
"""

from __future__ import annotations

import math
import operator
import time
from collections import namedtuple
from itertools import accumulate, zip_longest

from . import coefficients, combinatorics, enumeration, powersum

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


class CheckResult(namedtuple("CheckResult", "suite name status detail", defaults=("",))):
    """One check of a suite; status is pass, fail or skipped."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "suites checks duration")):
    """The suites run (sorted), their checks in run order and the wall
    time in seconds; pmax and the size guard stay with the caller."""

    __slots__ = ()

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


#: The ok of a line the size guard clipped; no check expression is it.
_SKIP = object()


# ---------------------------------------------------------------------------
# coeff suite
# ---------------------------------------------------------------------------

def _route_faults(reports) -> list[str]:
    """Each route, in ROUTES order, that differs from the closed route or
    raised at some ell of one row of reports, named with its first such ell."""
    faults = []
    for route in reports[0].values:
        for ell, report in enumerate(reports):
            value = report.values[route]
            raised = isinstance(value, RuntimeError)
            if raised or value != report.value:
                faults.append(f"{route} {'raised ' if raised else ''}at ell={ell}")
                break
    return faults


def _coeff_checks(pmax: int, guard: int) -> list[tuple]:
    # Row p, the reference triangle and the guard's route split are read
    # from these reports.
    all_reports = [
        [coefficients.certify(p, ell, guard) for ell in range(p)] for p in range(1, pmax + 1)
    ]
    ref_rows = min(pmax, 9)
    got = tuple(tuple(r.value for r in reports) for reports in all_reports[:ref_rows])
    lines = [(f"reference triangle rows 1..{ref_rows}", got == REFERENCE_TRIANGLE[:ref_rows])]

    # In the loop, surj[j] counts the surjections from a p-set onto a
    # j-set, stepped from the row of p - 1 by surj(p, j) = j * (surj(p - 1,
    # j) + surj(p - 1, j - 1)): a witness apart from the row tables and
    # their steps.
    surj = [1]
    sets: dict = {}  # (total, parts) -> _min_part_2's pass over that set
    for p, reports in enumerate(all_reports, 1):
        surj = [j * (at + below) for j, at, below in zip(range(p + 1), surj + [0], [0] + surj)]
        detail = f"{len(reports[0].values)} routes, ell=0..{p - 1}"
        agree = all(r.agree for r in reports)
        if not agree:
            detail += "; differs from closed: " + ", ".join(_route_faults(reports))
        lines.append((f"routes agree p={p}", agree, detail))
        if reports[0].skipped:
            lines.append((f"enumerative routes p={p}", _SKIP))

        # A closed route that raised reads as 0, which no c(p, ell) is, so
        # each line that reads it fails.
        row = [0 if isinstance(r.value, RuntimeError) else r.value for r in reports]
        alternating = sum((-1) ** ell * c for ell, c in enumerate(row))
        lines.append((
            f"row properties p={p}",
            row[0] == math.factorial(p)
            and row[-1] == 1
            and alternating == 1
            and all(c > 0 for c in row),
        ))

        if p >= 2:
            # c(p, 1) = (p - 1)/2 * p! and c(p, 2) = 1/8 * p! (p - 2)(p - 5/3),
            # each times its denominator.
            ok = 2 * row[1] == (p - 1) * math.factorial(p)
            if p >= 3:
                ok = ok and 24 * row[2] == math.factorial(p) * (p - 2) * (3 * p - 5)
            lines.append((f"closed sub-formulas p={p}", ok))

        brute = p <= 7
        ok = all(
            row[p - j] == surj[j]
            and (not brute or row[p - j] == combinatorics.surjection_brute(p, j))
            for j in range(1, p + 1)
        )
        lines.append((
            f"surjection identity p={p}",
            ok,
            "brute force included" if brute else "counting formula only",
        ))

        if 2 <= p <= guard:
            lines.append((f"composition identity p={p}", _composition_identity(p, reports, sets)))
            lines.append((f"summand counts p={p}", _summand_counts(p, sets)))
        elif p >= 2:
            lines += [(f"composition identity p={p}", _SKIP), (f"summand counts p={p}", _SKIP)]
    return lines


def _min_part_2(sets: dict, total: int, parts: int) -> tuple[int, int]:
    """(count, sum of total! / prod(s_i!)) over the compositions of total
    into `parts` parts, each >= 2: one pass per set for the whole suite,
    kept in `sets`. The identity at p reads the weighted sum of the sets
    with total p; the summand counts at p read the count of every set
    the decompose route streams at p, so with total <= p."""
    held = sets.get((total, parts))
    if held is None:
        fact = math.factorial(total)
        count = weighted = 0
        for s in enumeration.enumerate_compositions(total, parts, 2):
            count += 1
            weighted += fact // math.prod(map(math.factorial, s))
        held = sets[total, parts] = (count, weighted)
    return held


def _composition_identity(p: int, reports: list[coefficients.RouteReport], sets: dict) -> bool:
    """One pass per j over the min-part-1 compositions of p into j parts,
    each weighted p! / prod(s_i!) here as the oracle side, and three
    comparisons: the total equals the decompose value certify() reported
    at ell = p - j, the share of tuples containing a 1 equals w_sum(p, j),
    and the rest equals the weighted min-part-2 compositions of p into j
    parts (_min_part_2)."""
    fact_p = math.factorial(p)
    for j in range(1, p):
        total = with_one = 0
        for s in enumeration.enumerate_compositions(p, j, 1):
            weight = fact_p // math.prod(map(math.factorial, s))
            total += weight
            if 1 in s:
                with_one += weight
        if total != reports[p - j].values["decompose"]:
            return False
        if with_one != coefficients.w_sum(p, j):
            return False
        if total - with_one != _min_part_2(sets, p, j)[1]:
            return False
    return True


def _summand_counts(p: int, sets: dict) -> bool:
    """The decompose route's summands at j = p - ell, counted from the
    min-part-2 sets it streams, against summand_count and C(p-1, j-1)."""
    for j in range(1, p):
        streamed = sum(
            math.comb(j, t) * _min_part_2(sets, p + t - j, t)[0] for t in range(1, j + 1)
        )
        if streamed != coefficients.summand_count(p, j):
            return False
        if streamed != math.comb(p - 1, j - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration suite
# ---------------------------------------------------------------------------

def _enumeration_checks(pmax: int, guard: int) -> list[tuple]:
    lines = [
        (f"tuple families p={p}", _tuple_families(p) if p <= guard else _SKIP)
        for p in range(1, pmax + 1)
    ]

    ok = all(
        sum(1 for _ in enumeration.enumerate_compositions(total, k, 1))
        == math.comb(total - 1, k - 1)
        for total in range(1, 21)
        for k in range(1, 9)
    )
    lines.append(("composition counts T<=20", ok))
    return lines


def _tuple_families(p: int) -> bool:
    """Both tuple families for every ell < p, read together in one pass
    and held nowhere. Each k-tuple t, with u its paired j-tuple, must
    follow the one before in (length, tuple) order, so none repeats, and
    have u == t + 1 entrywise, no negative entry, content ell, exactly
    p - ell - 1 zeros and no two positive entries side by side. Neither
    stream may run out first, and each family has C(p - 1, p - ell - 1)
    members. The j-family needs no check of its own: u is then positive,
    sums to ell + len(u), is >= 2 exactly where t is positive, so at
    len(u) + ell + 1 - p entries, and is 1 after each of them but a last
    one."""
    for ell in range(p):
        count, prev, zeros = 0, (), p - ell - 1  # () sorts before every key
        pairs = zip_longest(
            enumeration.enumerate_k_tuples(p, ell), enumeration.enumerate_j_tuples(p, ell)
        )
        for t, u in pairs:
            if t is None or u is None:
                return False
            key = (len(t), t)
            if not prev < key:
                return False
            prev = key
            count += 1
            if u != tuple(map((1).__add__, t)):
                return False
            if min(t, default=0) < 0 or sum(t) != ell or t.count(0) != zeros:
                return False
            if any(map(operator.mul, t, t[1:])):  # two positives side by side
                return False
        if count != math.comb(p - 1, p - ell - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# fermat suite
# ---------------------------------------------------------------------------

def _fermat_checks(pmax: int, guard: int) -> list[tuple]:
    from fractions import Fraction

    from . import fermat

    # certify_inverse's row checks run once, at pmax: row k of A_pmax and
    # C_pmax reads only rows 1..k, so the leading p x p blocks are
    # certified for every p up to `certified`. Each p then checks that
    # build_fermat(p) and inverse_closed(p) are those blocks.
    a_max, c_max = fermat.build_fermat(pmax), fermat.inverse_closed(pmax)
    certified = fermat.certified_rows(a_max, c_max)
    det_num = det_den = expect_den = 1
    lines = []
    for p in range(1, pmax + 1):
        a, inv = fermat.build_fermat(p), fermat.inverse_closed(p)
        ok = (
            p <= certified
            and fermat.is_leading_block(a, a_max)
            and fermat.is_leading_block(inv, c_max)
        )
        lines.append((f"inverse certified p={p}", ok))

        # det A_p = det A_(p-1) * a(p, p), read from A_pmax, as
        # det_num / det_den, against 1 / (1! 2! ... p!) = 1 / expect_den.
        ints, scale = a_max.scaled_row(p)
        det_num *= ints[p - 1]
        det_den *= scale
        expect_den *= math.factorial(p)
        lines.append((f"determinant p={p}", det_num * expect_den == det_den and det_num != 0))

        ints, scale = inv.scaled_row(p)
        ok = scale == 1 and ints == tuple(
            (-1) ** (p - i) * coefficients.c_closed(p, p - i) for i in range(1, p + 1)
        )
        lines.append((f"power-basis row p={p}", ok))

    for k in range(1, min(pmax, 12) + 1):
        poly = fermat.figurate_polynomial(k)
        a = fermat.build_fermat(k)
        coeff_ok = (
            poly.degree == k
            and poly.coefficients[0] == 0
            and tuple(poly.coefficients[1:]) == a.row(k)
        )
        eval_ok = all(
            poly(n) == math.comb(n + k - 1, k) for n in range(1, 51)
        )
        lines.append((f"figurate polynomial k={k}", coeff_ok and eval_ok))

    if pmax >= 5:
        a5 = fermat.build_fermat(5)
        inv5 = fermat.inverse_closed(5)
        ok = all(
            a5.entry(k, j) == Fraction(REFERENCE_FERMAT_5[k - 1][j - 1])
            and inv5.entry(k, j) == REFERENCE_INVERSE_5[k - 1][j - 1]
            for k in range(1, 6)
            for j in range(1, 6)
        )
        lines.append(("reference matrices p=5", ok))
    return lines


# ---------------------------------------------------------------------------
# orthogonality suite
# ---------------------------------------------------------------------------

def orthogonality_row(k: int, j_max: int) -> bool:
    """Both Stirling orthogonality relations for row k against all j <= j_max.

    Rows 0..k of both triangles are read once; s(r, j) and S(r, j) vanish
    for r < j, so each sum runs over r = j..k.
    """
    s1 = combinatorics.number_triangle("stirling1", k).rows
    s2 = combinatorics.number_triangle("stirling2", k).rows
    for j in range(j_max + 1):
        delta = (-1) ** k if k == j else 0
        first = sum((-1) ** r * s1[k][r] * s2[r][j] for r in range(j, k + 1))
        second = sum((-1) ** r * s2[k][r] * s1[r][j] for r in range(j, k + 1))
        if first != delta or second != delta:
            return False
    return True


def _orthogonality_checks(pmax: int, guard: int) -> list[tuple]:
    return [(f"orthogonality row k={k}", orthogonality_row(k, pmax)) for k in range(pmax + 1)]


# ---------------------------------------------------------------------------
# powersum suite
# ---------------------------------------------------------------------------

def _powersum_checks(pmax: int, guard: int) -> list[tuple]:
    from . import fermat
    from .exact import Polynomial

    lines = []
    for p in range(1, min(pmax, 10) + 1):
        tags = ("eq5", "alt1", "alt2", "alt3") + (("faulhaber",) if p >= 2 else ())
        # S_p(0..100) as one running sum of r^p, kept apart from the
        # library's own accumulations.
        brute = accumulate((r**p for r in range(1, 101)), initial=0)
        ok = all(
            powersum.evaluate_formula(tag, n, p) == want
            for n, want in enumerate(brute)
            for tag in tags
        )
        power_ok = all(
            powersum.evaluate_formula("power_ml1", n, p) == n**p for n in range(1, 101)
        )
        lines.append((f"pointwise agreement p={p}", ok and power_ok))

        expansions = [powersum.expand_symbolic(p, tag) for tag in tags]
        base = expansions[0]
        sym_ok = (
            all(e == base for e in expansions)
            and base.degree == p + 1
            and base.coefficients[0] == 0
            and powersum.expand_symbolic(p, "power_ml1") == Polynomial((0,) * p + (1,))
        )
        lines.append((f"symbolic agreement p={p}", sym_ok))

    ok = all(
        powersum.figurate(n, k) == want
        for k in range(2, 9)
        for n, want in enumerate(
            accumulate((powersum.figurate(i, k - 1) for i in range(1, 51)), initial=0)
        )
    )
    lines.append(("telescoping k<=8 n<=50", ok))

    ok = all(
        (powersum.figurate(n, k) == 0) == (-(k - 1) <= n <= 0)
        for k in range(1, 11)
        for n in range(-25, 26)
    )
    lines.append(("figurate roots k<=10", ok))

    ok = True
    for p in range(1, 13):
        coeffs = [c for c, _, _ in powersum.representation("alt2", p)]
        if coeffs != coeffs[::-1]:
            ok = False
    lines.append(("eulerian coefficient symmetry p<=12", ok))

    if pmax >= 8:
        ok = all(
            powersum.representation(tag, 8) == REFERENCE_SUM8_TERMS[tag]
            for tag in ("eq5", "alt1", "alt2", "alt3")
        )
        lines.append(("reference expansions p=8", ok))

    if pmax >= 3:
        t_squared = powersum.expand_symbolic(3, "faulhaber")
        cube_ok = (
            powersum.faulhaber_coefficients(3) == (1,)
            and t_squared == fermat.figurate_polynomial(2) * fermat.figurate_polynomial(2)
            and all(
                powersum.faulhaber_eval(n, 3) == powersum.figurate(n, 2) ** 2
                for n in range(51)
            )
        )
        lines.append(("cube identity", cube_ok))

    ok = all(
        all(c != 0 for c in powersum.faulhaber_coefficients(p))
        for p in range(2, 13)
    )
    lines.append(("faulhaber coefficients nonzero p<=12", ok))
    return lines


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
    checks = []
    for suite in SUITES:  # fixed alphabetical order regardless of request order
        if suite in wanted:
            # Looked up at call time, so a replaced _<suite>_checks is the one run.
            for name, ok, *detail in globals()[f"_{suite}_checks"](pmax, size_guard):
                if ok is _SKIP:
                    checks.append(CheckResult(suite, name, "skipped", f"size guard {size_guard}"))
                else:
                    checks.append(CheckResult(suite, name, "pass" if ok else "fail", *detail))
    duration = time.monotonic() - start
    return VerifyReport(tuple(sorted(wanted)), tuple(checks), duration)
