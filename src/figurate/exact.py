"""Exact rational and polynomial arithmetic.

Integers are plain Python ints (arbitrary precision). Rationals are
``fractions.Fraction``, which already keeps the canonical form we rely on
(positive denominator, lowest terms, 0 == 0/1). Polynomials are dense
coefficient tuples over Fraction, index = exponent, with no trailing zero
coefficient. No floating point enters anywhere.

There are no wrappers that rename these operators: Fraction(num, den)
normalizes, Fraction(s) parses what format_rational prints, and the
Polynomial operators (+, -, *, scale, divmod, calling, ==) are the
polynomial arithmetic; divmod is exact long division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def format_rational(q: Scalar) -> str:
    """Serialize a rational as "num/den", abbreviated to "num" when den == 1."""
    return str(Fraction(q))


class Polynomial:
    """Immutable univariate polynomial over exact rationals.

    Coefficients are stored densely, lowest power first, with trailing
    zeros stripped; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: Scalar = 1) -> "Polynomial":
        """coefficient * n**exponent"""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @property
    def degree(self) -> int:
        """Index of the last coefficient; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """(quotient, remainder) of exact long division: self equals
        quotient * other + remainder, with deg remainder < deg other."""
        divisor = other.coefficients
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        *lower, lead = divisor
        rem = list(self.coefficients)
        quot = [Fraction(0)] * max(len(rem) - len(lower), 0)
        for i in reversed(range(len(quot))):
            q = quot[i] = rem[i + len(lower)] / lead
            for j, d in enumerate(lower):
                if d:
                    rem[i + j] -= q * d
        return Polynomial(quot), Polynomial(rem[: len(lower)])

    def scale(self, factor: Scalar) -> "Polynomial":
        f = Fraction(factor)
        return Polynomial(c * f for c in self.coefficients)

    def __call__(self, x: Scalar) -> Fraction:
        """Exact value at x, by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def to_strings(self) -> list[str]:
        """Coefficients as rational strings, index = exponent."""
        return [format_rational(c) for c in self.coefficients]

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"


def format_polynomial(poly: Polynomial, variable: str = "n") -> str:
    """Human-readable form, highest power first, e.g. "1/2 n^2 + 1/2 n"."""
    if poly.is_zero():
        return "0"
    parts: list[str] = []
    for exp in range(poly.degree, -1, -1):
        c = poly.coefficients[exp]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if exp == 0:
            body = format_rational(mag)
        else:
            var = variable if exp == 1 else f"{variable}^{exp}"
            body = var if mag == 1 else f"{format_rational(mag)} {var}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
