"""Exact rational and polynomial arithmetic.

Integers are plain Python ints (arbitrary precision). Rationals are
``fractions.Fraction``, which already keeps the canonical form we rely on
(positive denominator, lowest terms, 0 == 0/1). Polynomials are dense
coefficient tuples over Fraction, index = exponent, with no trailing zero
coefficient. Only ints and Fractions enter: a float, a string or any other
value is refused with TypeError, so no floating point enters anywhere.

There are no wrappers that rename these operators: Fraction(num, den)
normalizes, Fraction(s) parses what format_rational prints, and the
Polynomial operators (*, calling, ==) are the polynomial arithmetic;
the zero polynomial is Polynomial() and a polynomial P is zero when
`not P.coefficients`.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from fractions import Fraction


def _rational(x: int | Fraction) -> Fraction:
    """x as a Fraction: a Fraction as it is, any other numbers.Rational
    (int, bool) wrapped; TypeError for anything else (float, str, ...)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}")


def format_rational(q: int | Fraction) -> str:
    """Serialize a rational as "num/den", abbreviated to "num" when den == 1."""
    return str(_rational(q))


class Polynomial:
    """Immutable univariate polynomial over exact rationals.

    Coefficients are stored densely, lowest power first, with trailing
    zeros stripped; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int | Fraction] = ()):
        coeffs = [_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the refusing __setattr__.
        return Polynomial, (self.coefficients,)

    @property
    def degree(self) -> int:
        """Index of the last coefficient; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial(out)

    def __call__(self, x: int | Fraction) -> Fraction:
        """Exact value at x, by Horner's rule over integers.

        The coefficients are scaled to their common denominator L, and for
        x = u/w (an int x is x/1) the homogenised form sum a_i u^i w^(d-i)
        over L w^d, d the degree, is stepped in integers. One Fraction is
        built at the end.
        """
        if not isinstance(x, int):
            x = _rational(x)
        coeffs = self.coefficients
        if not coeffs:
            return Fraction(0)
        den = math.lcm(*[c.denominator for c in coeffs])
        ints = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]
        acc = ints[0]
        u, w = x.numerator, x.denominator
        scale = 1  # w ** (steps so far)
        for a in ints[1:]:
            scale *= w
            acc = acc * u + a * scale
        return Fraction(acc, den * scale)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"


def format_polynomial(poly: Polynomial) -> str:
    """Human-readable form, highest power first, e.g. "1/2 n^2 + 1/2 n"."""
    if not poly.coefficients:
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
            var = "n" if exp == 1 else f"n^{exp}"
            body = var if mag == 1 else f"{format_rational(mag)} {var}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
