"""Exact rationals and polynomial arithmetic.

Rationals are plain Fraction: Fraction(num, den) is the normalizer and
Fraction(s) parses what format_rational prints. Polynomial arithmetic is
the Polynomial operators themselves.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from figurate.exact import Polynomial, format_polynomial, format_rational

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
    def test_additive_identity(self):
        assert N + Polynomial.zero() == N

    def test_square(self):
        assert N * N == Polynomial((0, 0, 1))

    def test_scale(self):
        assert F2.scale(2) == Polynomial((0, 1, 1))

    def test_sub_self_is_zero(self):
        assert (F5 - F5).is_zero()

    def test_unknown_op(self):
        with pytest.raises(TypeError):
            N**N

    def test_scale_by_nonconstant_rejected(self):
        with pytest.raises(TypeError):
            N.scale(N)

    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
        assert Polynomial((0,)).degree == -1
        assert Polynomial(()).is_zero()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            N.coefficients = ()

    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.lists(st.integers(-9, 9), max_size=5),
        st.integers(-20, 20),
    )
    def test_eval_is_ring_homomorphism(self, a_coeffs, b_coeffs, x):
        a, b = Polynomial(a_coeffs), Polynomial(b_coeffs)
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


class TestPolynomialDivision:
    def test_exact_quotient(self):
        assert divmod(F2 * F3, F3) == (F2, Polynomial.zero())

    def test_nonzero_remainder(self):
        # n^2 + 1 = (n - 1)(n + 1) + 2
        assert divmod(N * N + Polynomial.constant(1), N + Polynomial.constant(1)) == (
            N - Polynomial.constant(1),
            Polynomial.constant(2),
        )

    def test_divisor_of_higher_degree(self):
        assert divmod(F2, F5) == (Polynomial.zero(), F2)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(F2, Polynomial.zero())

    @given(
        st.lists(st.integers(-9, 9), max_size=7),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
    )
    def test_division_identity(self, a_coeffs, b_coeffs):
        a, b = Polynomial(a_coeffs), Polynomial(b_coeffs)
        quotient, remainder = divmod(a, b)
        assert quotient * b + remainder == a
        assert remainder.degree < b.degree


class TestPolyEval:
    def test_triangular_number(self):
        assert F2(3) == 6

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
        strings = F5.to_strings()
        assert strings == ["0", "1/5", "5/12", "7/24", "1/12", "1/120"]
        assert Polynomial(Fraction(s) for s in strings) == F5

    def test_format_polynomial(self):
        assert format_polynomial(F2) == "1/2 n^2 + 1/2 n"
        assert format_polynomial(Polynomial.zero()) == "0"
        assert format_polynomial(Polynomial((-1, 2))) == "2 n - 1"
