"""Acceptance suite: one test per criterion, exact tolerances, stated
time budgets. Each test prints its own pass line on success."""

import math
import time

from figurate import coefficients, combinatorics, enumeration, fermat, powersum
from figurate.cli import main
from reference import FERMAT_5_CELLS, INVERSE_5_CELLS, SUM8_COEFFICIENTS, TRIANGLE_9


def _done(num: int, text: str, elapsed: float) -> None:
    print(f"criterion {num}: PASS - {text} ({elapsed:.2f}s)")


def test_criterion_01_reference_triangle(capsys):
    start = time.perf_counter()
    assert main(["triangle", "--pmax", "9", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = tuple(tuple(int(c) for c in line.split(",")) for line in out.splitlines())
    assert rows == TRIANGLE_9
    assert sum(len(r) for r in rows) == 45
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _done(1, "triangle --pmax 9 reproduces all 45 reference entries", elapsed)


def test_criterion_02_route_agreement(capsys):
    start = time.perf_counter()
    for p in range(1, 13):
        for ell in range(p):
            report = coefficients.certify(p, ell)
            assert report.skipped == ()
            assert set(report.values) == set(coefficients.ROUTES)
            assert report.agree, (p, ell, report.values)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _done(2, "all coefficient routes agree for every (p, ell), p <= 12", elapsed)


def test_criterion_03_worked_example(capsys):
    start = time.perf_counter()
    groups = coefficients.decompose_groups(9, 4)
    assert [(w, inner) for _, w, inner in groups] == [
        (4, 504),
        (6, 8064),
        (4, 26460),
        (1, 30240),
    ]
    assert coefficients.c_decompose(9, 5) == 186480
    assert coefficients.c_alternating(9, 5) == 4**9 - 4 * 3**9 + 6 * 2**9 - 4
    assert coefficients.c_alternating(9, 5) == 186480
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _done(3, "c(9,5) worked example, grouped terms and alternating form", elapsed)


def test_criterion_04_fermat_certification(capsys):
    start = time.perf_counter()
    for p in range(1, 21):
        assert fermat.certify_inverse(p), p
    assert main(["fermat", "--p", "5"]) == 0
    cells = tuple(tuple(l.split()) for l in capsys.readouterr().out.splitlines())
    assert cells == FERMAT_5_CELLS
    assert main(["fermat", "--p", "5", "--inverse"]) == 0
    cells = tuple(tuple(l.split()) for l in capsys.readouterr().out.splitlines())
    assert cells == INVERSE_5_CELLS
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _done(4, "exact two-sided inverses for p <= 20, order-5 displays exact", elapsed)


def test_criterion_05_orthogonality(capsys):
    start = time.perf_counter()
    # s(k, r), zero past r = k, from the stirling1 triangle.
    triangle = combinatorics.number_triangle("stirling1", 20)
    s1 = [row + (0,) * (20 - k) for k, row in enumerate(triangle.rows)]
    s2 = combinatorics.stirling2
    for k in range(21):
        for j in range(21):
            delta = (-1) ** k if k == j else 0
            assert delta == sum(
                (-1) ** r * s1[k][r] * s2(r, j) for r in range(k + 1)
            ), (k, j)
            assert delta == sum(
                (-1) ** r * s2(k, r) * s1[r][j] for r in range(k + 1)
            ), (k, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _done(5, "both orthogonality relations exact for k, j <= 20", elapsed)


def test_criterion_06_power_sum_equivalence(capsys):
    start = time.perf_counter()
    for p in range(1, 11):
        for n in range(101):
            brute = sum(r**p for r in range(1, n + 1))
            assert powersum.sum_eq5(n, p) == brute
            assert powersum.sum_stirling(n, p) == brute
            assert powersum.sum_eulerian(n, p) == brute
            assert powersum.sum_variant(n, p) == brute
            if p >= 2:
                assert powersum.faulhaber_eval(n, p) == brute
        tags = ["eq5", "alt1", "alt2", "alt3"] + (["faulhaber"] if p >= 2 else [])
        polys = [powersum.expand_symbolic(p, tag) for tag in tags]
        assert all(q == polys[0] for q in polys)
    for tag, coeffs in SUM8_COEFFICIENTS.items():
        got = tuple(c for c, _, _ in powersum.representation(tag, 8))
        assert got == coeffs, tag
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        _done(6, "five evaluators match brute force and expand identically", elapsed)


def test_criterion_07_counting_identities(capsys):
    start = time.perf_counter()
    for p in range(2, 13):
        for j in range(1, p):
            streamed = sum(
                math.comb(j, t)
                * sum(1 for _ in enumeration.enumerate_compositions(p + t - j, t, 2))
                for t in range(1, j + 1)
            )
            n = coefficients.summand_count(p, j)
            assert n == math.comb(p - 1, j - 1) == streamed, (p, j)
    assert coefficients.summand_count(9, 4) == 56
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _done(7, "N(p,j) = C(p-1,j-1) = streamed count for p <= 12; N(9,4) = 56", elapsed)


def test_criterion_08_surjection_oracle(capsys):
    start = time.perf_counter()
    for p in range(1, 8):
        for j in range(1, p + 1):
            assert coefficients.c_closed(p, p - j) == combinatorics.surjection_brute(
                p, j
            ), (p, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _done(8, "coefficients equal brute-force surjection counts for p <= 7", elapsed)


def test_criterion_09_faulhaber(capsys):
    start = time.perf_counter()
    t_squared = fermat.figurate_polynomial(2) * fermat.figurate_polynomial(2)
    assert powersum.expand_symbolic(3, "faulhaber") == t_squared
    assert powersum.expand_symbolic(3, "eq5") == t_squared
    for n in range(51):
        assert powersum.faulhaber_eval(n, 3) == powersum.figurate(n, 2) ** 2
    for p in range(2, 12):
        for n in range(51):
            assert powersum.faulhaber_eval(n, p) == sum(r**p for r in range(1, n + 1))
    for p in range(2, 13):
        assert all(c != 0 for c in powersum.faulhaber_coefficients(p))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _done(9, "cube identity, Faulhaber evaluation, nonzero coefficients", elapsed)


def test_criterion_10_row_properties(capsys):
    start = time.perf_counter()
    triangle = coefficients.build_triangle(25)
    for p in range(1, 26):
        row = triangle[p - 1]
        assert row[0] == math.factorial(p)
        assert row[-1] == 1
        assert sum((-1) ** ell * c for ell, c in enumerate(row)) == 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _done(10, "boundary columns and alternating row sums for p <= 25", elapsed)
