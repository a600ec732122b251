"""Transition matrices, their exact inverses, and the figurate polynomials."""

import copy
import hashlib
import itertools
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurate import cli, exact, fermat
from figurate.coefficients import c_closed
from figurate.combinatorics import number_triangle
from figurate.exact import Polynomial
from figurate.fermat import (
    RationalMatrix,
    build_fermat,
    certify_inverse,
    figurate_polynomial,
    inverse_closed,
    invert_exact,
)
from reference import FERMAT_5_CELLS, INVERSE_5_CELLS

F = Fraction

# The order-5 displays as values.
A5 = tuple(tuple(map(F, row)) for row in FERMAT_5_CELLS)
A5_INV = tuple(tuple(map(int, row)) for row in INVERSE_5_CELLS)


def identity(n):
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


class TestRationalMatrix:
    def test_one_based_access(self):
        m = RationalMatrix([[1, 2], [3, 4]])
        assert m.entry(1, 2) == 2
        assert m.entry(2, 1) == 3
        assert m.row(2) == (3, 4)
        assert m.order == 2

    @pytest.mark.parametrize("index", [0, -1, 4])
    def test_index_outside_one_to_order_rejected(self, index):
        m = build_fermat(3)
        with pytest.raises(IndexError):
            m.entry(index, 1)
        with pytest.raises(IndexError):
            m.entry(1, index)
        with pytest.raises(IndexError):
            m.row(index)

    def test_identity_and_matmul(self):
        ident = identity(3)
        m = RationalMatrix([[1, 0, 0], [2, 3, 0], [4, 5, 6]])
        assert (m @ ident) == m
        assert (ident @ m) == m
        assert ident.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_not_square_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])

    def test_immutable(self):
        m = identity(2)
        for name in ("_rows", "_scales", "order"):
            with pytest.raises(AttributeError):
                setattr(m, name, ())

    @pytest.mark.parametrize("build", [build_fermat, inverse_closed])
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_to_equal_matrix(self, build, duplicate):
        m = build(5)
        again = duplicate(m)
        assert type(again) is RationalMatrix
        assert again == m and hash(again) == hash(m)
        assert again.rows == m.rows
        with pytest.raises(AttributeError):
            again._rows = ()

    @pytest.mark.parametrize("build", [build_fermat, inverse_closed])
    def test_rows_round_trip_to_equal_matrix(self, build):
        # The builders' integer rows over their scales and the public
        # constructor's least common denominators are one canonical form.
        for p in range(1, 61):
            m = build(p)
            again = RationalMatrix(m.rows)
            assert again == m and hash(again) == hash(m)

    def test_rows_held_over_least_common_denominator(self):
        m = RationalMatrix([[F(1, 6), F(-1, 4)], [3, 0]])
        assert (m._rows, m._scales) == (((2, -3), (3, 0)), (12, 1))
        assert m == RationalMatrix([[F(1, 6), F(-1, 4)], [F(3), F(0)]])
        assert m.row(2) == (3, 0) and m.entry(1, 2) == F(-1, 4)
        assert all(type(x) is Fraction for row in m.rows for x in row)


#: sha256 over "num/den;" of every entry of build_fermat(p).rows and of
#: inverse_closed(p).rows, b"|" after each matrix, p = 1..60 and 200;
#: recorded from the matrices as Fraction tuples, before they were held
#: as integer rows.
ENTRY_DIGEST = "c3dc43e5c3e7b246f09f3d296f55ff390c512e10153be4a0d2c2a0d4e698f90c"


def test_entries_match_recorded_digest():
    digest = hashlib.sha256()
    for p in [*range(1, 61), 200]:
        for matrix in (build_fermat(p), inverse_closed(p)):
            for row in matrix.rows:
                for x in row:
                    assert type(x) is Fraction
                    digest.update(f"{x.numerator}/{x.denominator};".encode())
            digest.update(b"|")
    assert digest.hexdigest() == ENTRY_DIGEST


def test_builders_and_certification_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(fermat, "Fraction", refuse)
    monkeypatch.setattr(exact, "Fraction", refuse)
    assert build_fermat(40).order == inverse_closed(40).order == 40
    assert certify_inverse(40) is True


def test_row_strings_print_each_entry_as_str():
    for p in (1, 7, 40):
        for matrix in (build_fermat(p), inverse_closed(p)):
            for k in range(1, p + 1):
                assert matrix.row_strings(k) == [str(x) for x in matrix.row(k)]
    for index in (0, -1, 4):
        with pytest.raises(IndexError):
            inverse_closed(3).row_strings(index)


def test_inverse_prints_without_fraction(monkeypatch, capsys):
    # The closed-form inverse is held over the scale 1: its rows print
    # straight from their ints.
    def refuse(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(fermat, "Fraction", refuse)
    monkeypatch.setattr(exact, "Fraction", refuse)
    assert cli.main(["fermat", "--p", "40", "--inverse", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "-1,2" + ",0" * 38


class TestBuildFermat:
    def test_order_one(self):
        assert build_fermat(1).rows == ((F(1),),)

    def test_reference_rows(self):
        a5 = build_fermat(5)
        assert a5.row(4) == A5[3]
        assert a5.row(5) == A5[4]
        assert a5.rows == A5

    @pytest.mark.parametrize("p", [1, 2, 7, 60])
    def test_entries_are_stirling_over_factorial(self, p):
        s1 = number_triangle("stirling1", p).rows
        assert build_fermat(p).rows == tuple(
            tuple(F(s1[k][j] if j <= k else 0, math.factorial(k)) for j in range(1, p + 1))
            for k in range(1, p + 1)
        )

    def test_structure(self):
        a = build_fermat(8)
        assert a.is_lower_triangular()
        for k in range(1, 9):
            assert a.entry(k, k) == F(1, math.factorial(k))

    def test_bad_order(self):
        with pytest.raises(ValueError):
            build_fermat(0)


class TestInverseClosed:
    def test_reference_matrix(self):
        inv = inverse_closed(5)
        assert tuple(tuple(x for x in row) for row in inv.rows) == tuple(
            tuple(F(v) for v in row) for row in A5_INV
        )
        assert inv.entry(5, 2) == -30
        assert inv.entry(4, 4) == 24

    def test_diagonal_is_factorial(self):
        inv = inverse_closed(9)
        for k in range(1, 10):
            assert inv.entry(k, k) == math.factorial(k)


class TestInvertExact:
    def test_inverts_reference(self):
        got = invert_exact(build_fermat(5))
        assert got == inverse_closed(5)
        assert got.row(5) == tuple(F(v) for v in A5_INV[4])
        assert got.row(4)[:4] == (-1, 14, -36, 24)

    def test_identity_fixed_point(self):
        ident = identity(6)
        assert invert_exact(ident) == ident

    def test_product_is_identity(self):
        for p in (1, 2, 3, 7, 12):
            a = build_fermat(p)
            inv = invert_exact(a)
            assert (a @ inv) == identity(p)
            assert (inv @ a) == identity(p)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            invert_exact(RationalMatrix([[1, 0], [2, 0]]))

    def test_non_triangular_rejected(self):
        with pytest.raises(ValueError, match="triangular"):
            invert_exact(RationalMatrix([[1, 1], [0, 1]]))


class TestCertifyInverse:
    def test_small_orders(self):
        for p in range(1, 13):
            assert certify_inverse(p)

    def test_large_order(self):
        assert certify_inverse(20)

    def test_determinant_is_nonzero(self):
        for p in range(1, 13):
            a = build_fermat(p)
            det = F(1)
            expect = F(1)
            for k in range(1, p + 1):
                det *= a.entry(k, k)
                expect /= math.factorial(k)
            assert det == expect != 0

    def test_last_row_carries_coefficients(self):
        for p in range(1, 13):
            inv = inverse_closed(p)
            for i in range(1, p + 1):
                assert inv.entry(p, i) == (-1) ** (p - i) * c_closed(p, p - i)


def _perturbed(build, k, j, delta):
    """build(p) with entry (k, j), 1-based, moved by delta."""

    def perturbed(p):
        rows = [list(row) for row in build(p).rows]
        rows[k - 1][j - 1] += delta
        return RationalMatrix(rows)

    return perturbed


class TestCertifyInverseRejects:
    """A single wrong entry in either matrix must give False, not raise."""

    @pytest.mark.parametrize("p", [6, 12])
    @pytest.mark.parametrize("target", ["build_fermat", "inverse_closed"])
    @pytest.mark.parametrize("where", ["below", "on", "above"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_perturbed_entry(self, monkeypatch, p, target, where, delta):
        k, j = {"below": (p - 1, 2), "on": (p // 2, p // 2), "above": (2, p - 1)}[where]
        monkeypatch.setattr(
            fermat, target, _perturbed(getattr(fermat, target), k, j, delta)
        )
        assert certify_inverse(p) is False

    @pytest.mark.parametrize(
        "target, extra, scale",
        [
            ("build_fermat", F(1, 7 * math.factorial(5)), math.factorial(5)),
            ("inverse_closed", F(1, 2), 1),
        ],
    )
    def test_row_scale_not_dividing(self, monkeypatch, target, extra, scale):
        # Row 5 gains a denominator that its scale (5! for A_p, 1 for the
        # closed form) is no multiple of.
        monkeypatch.setattr(fermat, target, _perturbed(getattr(fermat, target), 5, 1, extra))
        assert scale % getattr(fermat, target)(12)._scales[4]
        assert certify_inverse(12) is False

    def test_unperturbed_patch_certifies(self, monkeypatch):
        monkeypatch.setattr(fermat, "build_fermat", _perturbed(build_fermat, 3, 1, 0))
        monkeypatch.setattr(fermat, "inverse_closed", _perturbed(inverse_closed, 3, 1, 0))
        assert certify_inverse(12) is True


def certified_rows_three_pass(a: RationalMatrix, closed: RationalMatrix) -> int:
    """fermat.certified_rows as it was before it shared the partial sums,
    kept verbatim as an oracle: S1 C, C A_p and the forward substitution
    each checked in a pass of their own sums."""
    # Column j of S1, C and the forward-substitution inverse, from row j
    # down to the last row read.
    s1_cols: list[list[int]] = []
    cl_cols: list[list[int]] = []
    inv_cols: list[list[int]] = []
    fact = [1]
    for k, (arow, ascale, crow, cscale) in enumerate(
        zip(a._rows, a._scales, closed._rows, closed._scales)
    ):
        target = fact[k] * (k + 1)
        fact.append(target)
        q, rem = divmod(target, ascale)
        if rem or cscale != 1 or any(arow[k + 1 :]) or any(crow[k + 1 :]):
            return k
        srow = [x * q for x in arow[: k + 1]]
        crow = crow[: k + 1]
        for cols, entries in ((s1_cols, srow), (cl_cols, crow)):
            cols.append([])
            for col, x in zip(cols, entries):
                col.append(x)
        # Row k of S1 C.
        for j in range(k + 1):
            if sum(map(operator.mul, srow[j:], cl_cols[j])) != (target if j == k else 0):
                return k
        # Row k of C A_p times k!: the weight k!/i! clears the 1/i! of row i.
        weighted = [c * (target // fact[i + 1]) for i, c in enumerate(crow)]
        for j in range(k + 1):
            if sum(map(operator.mul, weighted[j:], s1_cols[j])) != (target if j == k else 0):
                return k
        # Row k of the forward substitution; S1 C = diag(k!) above rules out
        # a zero pivot. An entry that is not an integer cannot equal the
        # integral closed form.
        pivot = srow[k]
        diag, rem = divmod(target, pivot)
        if rem:
            return k
        row = [0] * k + [diag]
        for j in range(k - 1, -1, -1):
            q, rem = divmod(-sum(map(operator.mul, srow[j:k], inv_cols[j])), pivot)
            if rem:
                return k
            row[j] = q
        if tuple(row) != crow:
            return k
        inv_cols.append([])
        for col, x in zip(inv_cols, row):
            col.append(x)
    return len(fact) - 1


def _moved(m, k, j, delta):
    """m with entry (k, j), 0-based, moved by delta: an int moves the
    stored int over the row's scale; a Fraction moves the value, so the
    row's least common denominator may change."""
    if isinstance(delta, Fraction):
        rows = [list(row) for row in m.rows]
        rows[k][j] += delta
        return RationalMatrix(rows)
    rows = [list(row) for row in m._rows]
    rows[k][j] += delta
    return RationalMatrix._scaled(tuple(map(tuple, rows)), m._scales)


@st.composite
def _several_moved(draw):
    """build_fermat(p) and inverse_closed(p), p <= 9, with 1-3 entries
    moved, in either matrix or both, by one of +-1, +-2, 1/2 and -1/3."""
    p = draw(st.integers(1, 9))
    index = st.integers(0, p - 1)
    pair = [build_fermat(p), inverse_closed(p)]
    for _ in range(draw(st.integers(1, 3))):
        side, k, j = draw(st.integers(0, 1)), draw(index), draw(index)
        delta = draw(st.sampled_from([1, -1, 2, -2, F(1, 2), F(-1, 3)]))
        pair[side] = _moved(pair[side], k, j, delta)
    return pair


class TestSharedPartialSums:
    """certified_rows decides row k from the sums of S1 C alone: those
    sums decide the forward substitution too, and C A_p = I follows from
    A_p C = I on the leading blocks, as a one-sided inverse of a square
    matrix is two-sided. It counts the rows the three-pass oracle counts,
    which also checks C A_p and the substitution with sums of their own,
    so one product weakens no certificate."""

    def test_real_matrices(self):
        for p in range(1, 41):
            a, closed = build_fermat(p), inverse_closed(p)
            assert fermat.certified_rows(a, closed) == certified_rows_three_pass(a, closed) == p

    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("delta", [1, -1, F(1, 2)], ids=["+1", "-1", "half"])
    def test_one_moved_entry(self, p, delta):
        """Every entry of either matrix, above the diagonal too: the pass
        ends at the moved row in both implementations."""
        a, closed = build_fermat(p), inverse_closed(p)
        for k in range(p):
            for j in range(p):
                for pair in ((_moved(a, k, j, delta), closed), (a, _moved(closed, k, j, delta))):
                    assert fermat.certified_rows(*pair) == certified_rows_three_pass(*pair) == k

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(_several_moved())
    def test_several_moved_entries(self, pair):
        assert fermat.certified_rows(*pair) == certified_rows_three_pass(*pair)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_zero_pivot(self, p):
        a, closed = build_fermat(p), inverse_closed(p)
        for k in range(p):
            pair = (_moved(a, k, k, -a._rows[k][k]), closed)
            assert fermat.certified_rows(*pair) == certified_rows_three_pass(*pair) == k

    @pytest.mark.parametrize("p", range(2, 10))
    def test_swapped_closed_rows(self, p):
        """Row i then holds row j's nonzero entry at column j > i."""
        a, closed = build_fermat(p), inverse_closed(p)
        for i, j in itertools.combinations(range(p), 2):
            rows = list(closed._rows)
            rows[i], rows[j] = rows[j], rows[i]
            pair = (a, RationalMatrix._scaled(tuple(rows), closed._scales))
            assert fermat.certified_rows(*pair) == certified_rows_three_pass(*pair) == i

    def test_unequal_orders(self):
        """The pass reads the rows both matrices have."""
        for p, q in itertools.permutations(range(1, 10), 2):
            pair = (build_fermat(p), inverse_closed(q))
            assert fermat.certified_rows(*pair) == certified_rows_three_pass(*pair) == min(p, q)


class TestFiguratePolynomial:
    def test_line(self):
        assert figurate_polynomial(1) == Polynomial((0, 1))

    def test_triangular(self):
        assert figurate_polynomial(2) == Polynomial((0, F(1, 2), F(1, 2)))

    def test_dimension_five_display(self):
        assert figurate_polynomial(5) == Polynomial(
            (0, F(1, 5), F(5, 12), F(7, 24), F(1, 12), F(1, 120))
        )

    def test_zero_constant_term_and_degree(self):
        for k in range(1, 13):
            poly = figurate_polynomial(k)
            assert poly.degree == k
            assert poly.coefficients[0] == 0

    def test_coefficients_are_matrix_rows(self):
        a = build_fermat(12)
        for k in range(1, 13):
            poly = figurate_polynomial(k)
            padded = poly.coefficients[1:] + (F(0),) * (12 - k)
            assert padded == a.row(k)

    def test_values_are_binomials(self):
        for k in range(1, 9):
            poly = figurate_polynomial(k)
            for n in range(1, 31):
                assert poly(n) == math.comb(n + k - 1, k)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            figurate_polynomial(0)
