"""Reference values computed without the code under test.

Each oracle is the plainest formula for its quantity, written here on
purpose instead of imported from figurate, so a wrong library result
cannot also be the expected one.
"""

from __future__ import annotations

import math
from fractions import Fraction


def coefficient(p: int, ell: int) -> int:
    """c(p, ell) as the number of surjections from a p-set onto a
    (p - ell)-set, by inclusion-exclusion."""
    j = p - ell
    return sum((-1) ** r * math.comb(j, r) * (j - r) ** p for r in range(j + 1))


def power_sum(n: int, p: int) -> int:
    """S_p(n) = 1^p + ... + n^p by direct summation."""
    return sum(r**p for r in range(1, n + 1))


def polynomial_matches(coefficients, values) -> bool:
    """True iff the polynomial with these rational coefficients (lowest
    power first) takes values[i] at n = i + 1 for every i. With more
    points than its degree this pins the polynomial down exactly."""
    if len(coefficients) > len(values):
        return False
    for n, expected in enumerate(values, start=1):
        acc = Fraction(0)
        for c in reversed(coefficients):
            acc = acc * n + c
        if acc != expected:
            return False
    return True


def _bell_numbers(max_row: int) -> list[int]:
    """Bell numbers B_0..B_max_row by the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(max_row):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[0])
    return bells


def triangle_rows_ok(family: str, max_row: int, rows) -> bool:
    """Shape and row sums of a counting triangle.

    Row sums: k! for stirling1, the Bell number for stirling2, p! for
    eulerian1, and (2l - 1)!! for eulerian2 (1 for row 0).
    """
    if family == "stirling1":
        return len(rows) == max_row + 1 and all(
            len(row) == k + 1 and sum(row) == math.factorial(k) for k, row in enumerate(rows)
        )
    if family == "stirling2":
        bells = _bell_numbers(max_row)
        return len(rows) == max_row + 1 and all(
            len(row) == k + 1 and sum(row) == bells[k] for k, row in enumerate(rows)
        )
    if family == "eulerian1":
        return len(rows) == max_row and all(
            len(row) == p and sum(row) == math.factorial(p)
            for p, row in enumerate(rows, start=1)
        )
    if family == "eulerian2":
        return len(rows) == max_row + 1 and all(
            len(row) == max(l, 1) and sum(row) == math.prod(range(1, 2 * l, 2))
            for l, row in enumerate(rows)
        )
    raise ValueError(f"unknown family {family!r}")
