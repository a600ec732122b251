"""Fermat matrices: exact transition between power and figurate bases.

A_p is lower triangular with entries a(k, j) = s(k, j) / k! (unsigned
first-kind Stirling numbers), so that the column vector of F_n^1..F_n^p
equals A_p times the column vector of n..n^p. Its inverse has the closed
form a'(k, j) = (-1)^(k-j) * j! * S(k, j), read from one row of surjection
counts per k. A RationalMatrix holds ints over one scale per row:
A_p the Stirling rows s(k, .) over k!, the closed form the signed
surjection rows over 1. Neither builder makes a Fraction; entries become
Fractions only when read. certify_inverse checks the closed form as a
two-sided inverse and against forward substitution, over the stored ints.

Matrix indices are 1-based at the API surface.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .combinatorics import _STIRLING1, _surjection_row
from .exact import Polynomial, _rational


class RationalMatrix:
    """Immutable dense square matrix of exact rationals, 1-based access.

    Row k is held as a tuple of ints over one positive scale, always the
    least common denominator of the row. That form is canonical, so == and
    hash, which compare ints and scales, do not depend on how it was built.
    """

    __slots__ = ("_rows", "_scales")

    def __new__(cls, rows: Sequence[Sequence[Fraction | int]]):
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        rows = [[_rational(x) for x in r] for r in rows]
        scales = tuple(math.lcm(*(x.denominator for x in r)) for r in rows)
        ints = (tuple(x.numerator * (s // x.denominator) for x in r) for r, s in zip(rows, scales))
        return cls._scaled(tuple(ints), scales)

    @classmethod
    def _scaled(cls, rows: tuple[tuple[int, ...], ...], scales: tuple[int, ...]) -> RationalMatrix:
        """Row k is rows[k] over scales[k], each its row's least common denominator."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "_rows", rows)
        object.__setattr__(matrix, "_scales", scales)
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _scaled, not the refusing __setattr__.
        return RationalMatrix._scaled, (self._rows, self._scales)

    @property
    def order(self) -> int:
        return len(self._rows)

    def _index(self, i: int) -> int:
        """0-based position of the 1-based index i; IndexError outside 1..order."""
        if not 1 <= i <= len(self._rows):
            raise IndexError(f"index {i} out of range 1..{len(self._rows)}")
        return i - 1

    def entry(self, k: int, j: int) -> Fraction:
        """Entry in row k, column j, both 1-based."""
        k = self._index(k)
        return Fraction(self._rows[k][self._index(j)], self._scales[k])

    def row(self, k: int) -> tuple[Fraction, ...]:
        k = self._index(k)
        return tuple(Fraction(x, self._scales[k]) for x in self._rows[k])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(self.row, range(1, self.order + 1)))

    def row_strings(self, k: int) -> list[str]:
        """Row k as str() prints each entry; a row over the scale 1 is
        formatted from its stored ints, with no Fraction built."""
        if self._scales[self._index(k)] == 1:
            return list(map(str, self._rows[k - 1]))
        return list(map(str, self.row(k)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._rows == other._rows and self._scales == other._scales

    def __hash__(self) -> int:
        return hash((self._rows, self._scales))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.order != other.order:
            raise ValueError("order mismatch")
        cols = list(zip(*other.rows))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def is_lower_triangular(self) -> bool:
        return not any(any(row[k + 1 :]) for k, row in enumerate(self._rows))

    def __repr__(self) -> str:
        return f"RationalMatrix(order={self.order})"


def build_fermat(p: int) -> RationalMatrix:
    """A_p: row k is s(k, .) over k!, its least common denominator as s(k, k) = 1."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    return RationalMatrix._scaled(
        tuple(_STIRLING1.row(k)[1:] + (0,) * (p - k) for k in range(1, p + 1)),
        tuple(map(math.factorial, range(1, p + 1))),
    )


def inverse_closed(p: int) -> RationalMatrix:
    """The closed-form inverse of A_p, (-1)^(k-j) * j! * S(k, j), as integer rows
    over 1. Row k reads the surjection counts j! * S(k, j) of a k-set once."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    return RationalMatrix._scaled(
        tuple(
            tuple((-1) ** (k - j) * row[j] if j <= k else 0 for j in range(1, p + 1))
            for k, row in enumerate(map(_surjection_row, range(1, p + 1)), 1)
        ),
        (1,) * p,
    )


def invert_exact(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a lower-triangular matrix by forward substitution."""
    if not m.is_lower_triangular():
        raise ValueError("matrix is not lower triangular")
    n = m.order
    if any(m.entry(k, k) == 0 for k in range(1, n + 1)):
        raise ValueError("matrix is singular: zero diagonal entry")
    a = m.rows
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = 1 / a[i][i]
        for j in range(i - 1, -1, -1):
            acc = sum(a[i][k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -acc / a[i][i]
    return RationalMatrix(inv)


def certify_inverse(p: int) -> bool:
    """True iff the closed-form inverse is the exact two-sided inverse of
    A_p and matches the forward-substitution inversion entrywise.

    The checks read the stored ints of build_fermat(p) and inverse_closed(p).
    Let S1 be A_p with row k scaled by k! and C the closed form. Then
    A_p C = I is S1 C = diag(k!), C A_p = I is sum_i C[k][i] S1[i][j] (k!/i!)
    = k! [k == j], and forward substitution on A_p is forward substitution
    on S1 with row k's right-hand side k!. S1 and C must be integral (row
    scales dividing k!, resp. 1) and zero above the diagonal; both facts
    are checked, so sums restricted to the triangle hide no error.
    """
    fact = [math.factorial(k) for k in range(p + 1)]
    s1 = _integral_triangle(build_fermat(p), fact[1:])
    closed = _integral_triangle(inverse_closed(p), [1] * p)
    if s1 is None or closed is None:
        return False
    for k in range(p):
        target = fact[k + 1]
        srow = s1[k]
        # Row k of S1 C.
        for j in range(k + 1):
            acc = sum(srow[i] * closed[i][j] for i in range(j, k + 1))
            if acc != (target if j == k else 0):
                return False
        # Row k of C A_p times k!: the weight k!/i! clears the 1/i! of row i.
        weighted = [c * (target // fact[i + 1]) for i, c in enumerate(closed[k])]
        for j in range(k + 1):
            acc = sum(weighted[i] * s1[i][j] for i in range(j, k + 1))
            if acc != (target if j == k else 0):
                return False
    # Forward substitution; S1 C = diag(k!) above rules out a zero pivot.
    # An entry that is not an integer cannot equal the integral closed form.
    inv: list[list[int]] = []
    for i, srow in enumerate(s1):
        pivot = srow[i]
        diag, rem = divmod(fact[i + 1], pivot)
        if rem:
            return False
        row = [0] * i + [diag]
        for j in range(i - 1, -1, -1):
            q, rem = divmod(-sum(srow[m] * inv[m][j] for m in range(j, i)), pivot)
            if rem:
                return False
            row[j] = q
        inv.append(row)
    return inv == closed


def _integral_triangle(matrix: RationalMatrix, scale: Sequence[int]) -> list[list[int]] | None:
    """Row k times scale[k], on and below the diagonal, as lists of ints; None
    if the row's scale does not divide scale[k] or the row is nonzero above the diagonal."""
    out = []
    for k, (row, own) in enumerate(zip(matrix._rows, matrix._scales)):
        q, rem = divmod(scale[k], own)
        if rem or any(row[k + 1 :]):
            return None
        out.append([x * q for x in row[: k + 1]])
    return out


def figurate_polynomial(k: int) -> Polynomial:
    """F_n^k as an exact polynomial in n: (1/k!) * sum of s(k, r) n^r.

    Degree k, zero constant term; its coefficient list is row k of A_p
    for any p >= k, read once from the table of s.
    """
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    kfact = math.factorial(k)
    return Polynomial(Fraction(s, kfact) for s in _STIRLING1.row(k))
