"""Exact rationals and polynomial arithmetic.

Rationals are plain Fraction: Fraction(num, den) is the normalizer and
Fraction(s) parses what format_rational prints. Polynomial arithmetic is
the Polynomial operators themselves.
"""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from figurate.exact import Polynomial, format_polynomial, format_rational
from figurate.fermat import RationalMatrix

# The first few figurate polynomials, written out longhand.
F2 = Polynomial((0, Fraction(1, 2), Fraction(1, 2)))
F3 = Polynomial((0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))
F5 = Polynomial(
    (0, Fraction(1, 5), Fraction(5, 12), Fraction(7, 24), Fraction(1, 12), Fraction(1, 120))
)
N = Polynomial((0, 1))


class TestRationalNormalize:
    def test_gcd_reduction(self):
        assert Fraction(6, 4) == Fraction(3, 2)

    def test_sign_normalization(self):
        q = Fraction(5, -10)
        assert q == Fraction(-1, 2)
        assert q.denominator == 2

    def test_zero_canonicalization(self):
        q = Fraction(0, 7)
        assert q.numerator == 0
        assert q.denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
    def test_canonical_form(self, num, den):
        q = Fraction(num, den)
        assert q.denominator > 0
        from math import gcd

        assert gcd(abs(q.numerator), q.denominator) == 1
        assert Fraction(q.numerator, q.denominator) == q
        assert q + (-q) == Fraction(0, 1)
        assert q * 1 == q


class TestPolynomialArithmetic:
    def test_unit_and_zero_products(self):
        assert N * Polynomial((1,)) == N
        assert N * Polynomial() == Polynomial()

    def test_square(self):
        assert N * N == Polynomial((0, 0, 1))

    def test_scale(self):
        assert Polynomial((2,)) * F2 == Polynomial((0, 1, 1))

    def test_sub_self_is_zero(self):
        negated = Polynomial((-1,)) * F5
        assert not Polynomial(map(sum, zip(F5.coefficients, negated.coefficients))).coefficients

    def test_unknown_op(self):
        with pytest.raises(TypeError):
            N**N

    def test_scale_by_nonconstant_rejected(self):
        # Coefficients are exact scalars: scaling them by a polynomial fails.
        with pytest.raises(TypeError):
            Polynomial(c * N for c in F2.coefficients)

    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
        assert Polynomial((0,)).degree == -1
        assert not Polynomial(()).coefficients

    def test_immutable(self):
        with pytest.raises(AttributeError):
            N.coefficients = ()

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda P: pickle.loads(pickle.dumps(P))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_to_equal_polynomial(self, duplicate):
        P = Polynomial((1, 2))
        again = duplicate(P)
        assert type(again) is Polynomial
        assert again == P and hash(again) == hash(P)
        with pytest.raises(AttributeError):
            again.coefficients = ()

    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.lists(st.integers(-9, 9), max_size=5),
        st.integers(-20, 20),
    )
    def test_eval_is_ring_homomorphism(self, a_coeffs, b_coeffs, x):
        a, b = Polynomial(a_coeffs), Polynomial(b_coeffs)
        assert (a * b)(x) == a(x) * b(x)
        total = Polynomial(map(sum, itertools.zip_longest(a_coeffs, b_coeffs, fillvalue=0)))
        assert total(x) == a(x) + b(x)


def fraction_horner(poly, x):
    """Horner's rule with one Fraction step per coefficient: the oracle for
    the integer steps of Polynomial.__call__."""
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=40)


class TestPolyEval:
    def test_triangular_number(self):
        assert F2(3) == 6

    @given(
        st.lists(RATIONALS, max_size=9),
        st.one_of(st.integers(-10**6, 10**6), RATIONALS),
    )
    def test_equals_fraction_horner(self, coeffs, x):
        poly = Polynomial(coeffs)
        value = poly(x)
        assert type(value) is Fraction
        assert value == fraction_horner(poly, x)

    @given(st.one_of(st.integers(-10**30, 10**30), RATIONALS))
    def test_zero_and_constant_polynomials(self, x):
        assert Polynomial()(x) == 0 and type(Polynomial()(x)) is Fraction
        assert Polynomial((Fraction(-7, 3),))(x) == Fraction(-7, 3)

    def test_negative_and_fractional_points(self):
        for x in (-1, -2, Fraction(-3, 2), Fraction(1, 3), Fraction(-5, 7)):
            assert F5(x) == fraction_horner(F5, x)
        # F_n^2 vanishes at n = 0 and n = -1 only.
        assert F2(-1) == 0 and F2(Fraction(-1, 2)) == Fraction(-1, 8)

    def test_constant_coefficient_at_zero(self):
        poly = Polynomial((Fraction(7, 3), 1, 4))
        assert poly(0) == Fraction(7, 3)

    def test_figurate_dimension_five(self):
        # brute-force check value: C(2 + 5 - 1, 5)
        from math import comb

        assert F5(2) == comb(6, 5) == 6


class TestPolyEqual:
    def test_reflexive(self):
        assert N == N

    def test_distinct_degrees(self):
        assert N != Polynomial((0, 0, 1))

    def test_tetrahedral_expansion(self):
        built = Polynomial([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)])
        assert F3 == built

    @given(st.lists(st.integers(-9, 9), max_size=6))
    def test_agrees_with_pointwise_evaluation(self, coeffs):
        a = Polynomial(coeffs)
        b = Polynomial(coeffs)
        points = range(max(a.degree, 0) + 1)
        assert (a == b) == all(a(x) == b(x) for x in points)


class TestSerialization:
    def test_rational_round_trip(self):
        for q in (Fraction(3, 2), Fraction(-1, 2), Fraction(0), Fraction(24)):
            assert Fraction(format_rational(q)) == q

    def test_integer_rationals_abbreviate(self):
        assert format_rational(Fraction(24, 1)) == "24"
        assert format_rational(Fraction(1, 2)) == "1/2"

    def test_polynomial_round_trip(self):
        strings = [format_rational(c) for c in F5.coefficients]
        assert strings == ["0", "1/5", "5/12", "7/24", "1/12", "1/120"]
        assert Polynomial(Fraction(s) for s in strings) == F5

    def test_format_polynomial(self):
        assert format_polynomial(F2) == "1/2 n^2 + 1/2 n"
        assert format_polynomial(Polynomial()) == "0"
        assert format_polynomial(Polynomial((-1, 2))) == "2 n - 1"



#: The four places a value enters the exact containers, each read back as
#: the Fraction it stored, returned or printed.
ENTRY_POINTS = {
    "Polynomial": lambda x: Polynomial((x,)).coefficients[0],
    "Polynomial.__call__": lambda x: Polynomial((0, 1))(x),
    "format_rational": lambda x: Fraction(format_rational(x)),
    "RationalMatrix": lambda x: RationalMatrix([[x]]).entry(1, 1),
}


class TestOnlyExactValuesEnter:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("value", [0.1, 0.5, "1/3"], ids=repr)
    def test_float_and_string_rejected(self, entry, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_int_and_fraction_accepted(self, entry):
        for x in (7, -2, True, Fraction(7, 3), Fraction(-1, 2)):
            result = ENTRY_POINTS[entry](x)
            assert type(result) is Fraction and result == x
