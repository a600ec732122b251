"""Fermat matrices: exact transition between power and figurate bases.

A_p is lower triangular with entries a(k, j) = s(k, j) / k! (unsigned
first-kind Stirling numbers), so that the column vector of F_n^1..F_n^p
equals A_p times the column vector of n..n^p. Its inverse has the closed
form a'(k, j) = (-1)^(k-j) * j! * S(k, j), read from one row of surjection
counts per k. A RationalMatrix holds ints over one scale per row:
A_p the Stirling rows s(k, .) over k!, the closed form the signed
surjection rows over 1. Neither builder makes a Fraction; entries become
Fractions only when read. certify_inverse checks A_p C = I for the
closed form C, which makes C the two-sided inverse as A_p is square, and
checks C against forward substitution, both from one product over the
stored ints, row by row (certified_rows), so one pass at order p decides
every leading block of order p or less.

Matrix indices are 1-based at the API surface.
"""

from __future__ import annotations

import math
import operator
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

    def scaled_row(self, k: int) -> tuple[tuple[int, ...], int]:
        """Row k as stored: its ints and the positive scale they are over."""
        k = self._index(k)
        return self._rows[k], self._scales[k]

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
    rows = []
    for k in range(1, p + 1):
        row = _surjection_row(k)[1:]
        row[-2::-2] = map(operator.neg, row[-2::-2])  # j = k - 1, k - 3, ...
        rows.append(tuple(row) + (0,) * (p - k))
    return RationalMatrix._scaled(tuple(rows), (1,) * p)


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
    """True iff the closed form C is the exact inverse of A_p (A_p C = I,
    two-sided as A_p is square) and matches the forward-substitution
    inversion entrywise: every row of build_fermat(p) and inverse_closed(p)
    passes certified_rows.
    """
    return certified_rows(build_fermat(p), inverse_closed(p)) == p


def certified_rows(a: RationalMatrix, closed: RationalMatrix) -> int:
    """How many leading rows of `a` (as A_p) and `closed` (as its
    closed-form inverse) pass certify_inverse's checks; the first row
    that fails ends the pass.

    Row k is checked over the stored ints. Let S1 be A_p with row k scaled
    by k! and C the closed form. Row k of A_p C = I is row k of
    S1 C = diag(k!), and forward substitution on A_p is forward
    substitution on S1 with row k's right-hand side k!. Row k of S1 and C
    must be integral (row scale dividing k!, resp. 1) and zero above the
    diagonal; both facts are checked, so sums restricted to the triangle
    hide no error. Row k's checks read only rows 1..k, and those of the
    leading block of any order p >= k, so the count certifies every
    leading block whose order is at most the count.

    C A_p = I needs no pass of its own. When rows 1..k pass, the leading
    blocks satisfy A_k C_k = I_k, and a one-sided inverse of a square
    matrix is two-sided, so C_k A_k = I_k: row k of C A_p = I holds.

    The pass stops at the first failing row, so the substitution's rows
    X[i] above row k are C's rows, and entry (k, j < k) of S1 C is its
    partial sum over i = j..k-1 of S1[k][i] X[i][j] plus pivot * C[k][j]:
    it is zero exactly when X[k][j] = -partial / pivot is exact and equals
    C[k][j]. At j = k, pivot * C[k][k] = k! is X[k][k] = C[k][k] with a
    nonzero pivot. One sum per entry of S1 C so decides both checks.
    """
    # Column j of C, from row j down to the last row read.
    cl_cols: list[list[int]] = []
    target = 1
    for k, (arow, ascale, crow, cscale) in enumerate(
        zip(a._rows, a._scales, closed._rows, closed._scales)
    ):
        target *= k + 1
        q, rem = divmod(target, ascale)
        if rem or cscale != 1 or any(arow[k + 1 :]) or any(crow[k + 1 :]):
            return k
        srow = [x * q for x in arow[: k + 1]]
        cl_cols.append([])
        for col, x in zip(cl_cols, crow):
            col.append(x)
        # Row k of S1 C, and with it row k of the forward substitution.
        for j in range(k + 1):
            if sum(map(operator.mul, srow[j:], cl_cols[j])) != (target if j == k else 0):
                return k
    return len(cl_cols)


def is_leading_block(small: RationalMatrix, big: RationalMatrix) -> bool:
    """Whether `small` holds the leading rows and columns of `big`, as
    stored: the same ints over the same row scales."""
    p = small.order
    return small._scales == big._scales[:p] and small._rows == tuple(
        row[:p] for row in big._rows[:p]
    )


def figurate_polynomial(k: int) -> Polynomial:
    """F_n^k as an exact polynomial in n: (1/k!) * sum of s(k, r) n^r.

    Degree k, zero constant term; its coefficient list is row k of A_p
    for any p >= k, read once from the table of s.
    """
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    kfact = math.factorial(k)
    return Polynomial(Fraction(s, kfact) for s in _STIRLING1.row(k))
