"""Power sums as linear combinations of figurate numbers.

Let S_p(n) = 1^p + 2^p + ... + n^p. Besides the brute-force accumulation
(the oracle everything else is checked against), S_p(n) is evaluated and
symbolically expanded through four figurate expansions and the Faulhaber
polynomial form:

* eq5:   sum over i of (-1)^(i-1) (p-i+1)! S(p, p-i+1) F_n^(p-i+2)
* alt1:  sum over j of j! S(p, j) F_(n-j+1)^(j+1)
* alt2:  sum over j of <p, j> F_(n+j-p)^(p+1), first-kind Eulerian weights
* alt3:  sum over j of (j-1)! S(p+1, j) F_(n-j+1)^j
* faulhaber: S_2(n) times a polynomial in the triangular number T_n for
  even p, T_n^2 times such a polynomial for odd p

plus the plain power identity

* power_ml1: n^p = sum over ell of (-1)^ell c(p, ell) F_n^(p-ell).

The figurate value F_n^k is extended to every integer n by the rising
factorial product n(n+1)...(n+k-1)/k!, which vanishes exactly at
n = 0, -1, ..., -(k-1); the shifted arguments in alt1/alt3 rely on that.

Each figurate expansion is a data object (Representation): a list of
(integer coefficient, dimension, argument shift) terms consumed by one
shared evaluator and one shared symbolic expander. The expander works in
integers: each term is the product of its k linear factors (n+shift+i),
weighted over the common denominator (largest dimension)!, and the sum is
divided by that denominator once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coefficients import c_closed
from .combinatorics import eulerian_first, factorial, stirling2
from .exact import Polynomial
from .fermat import figurate_polynomial

#: CLI flag -> formula tag, for every formula. Every tag except brute has
#: a symbolic expansion.
FORMULA_FLAGS = {
    "brute": "brute",
    "eq5": "eq5",
    "stir": "alt1",
    "euler": "alt2",
    "alt3": "alt3",
    "faulhaber": "faulhaber",
    "ml1-power": "power_ml1",
}

FORMULA_TAGS = tuple(FORMULA_FLAGS.values())


def figurate(n: int, k: int) -> int:
    """F_n^k = n(n+1)...(n+k-1) / k! for any integer n and k >= 1.

    Equals C(n+k-1, k) for n >= 1 and is zero exactly on
    n in {0, -1, ..., -(k-1)}.
    """
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    num = math.prod(range(n, n + k))
    q, r = divmod(num, factorial(k))
    if r:
        raise RuntimeError(f"internal error: F_{n}^{k} product not divisible by {k}!")
    return q


@dataclass(frozen=True)
class Representation:
    """A figurate expansion as data: terms (coefficient, dimension, shift),
    standing for coefficient * F_(n+shift)^dimension."""

    tag: str
    p: int
    terms: tuple[tuple[int, int, int], ...]

    def evaluate(self, n: int) -> int:
        return sum(c * figurate(n + shift, dim) for c, dim, shift in self.terms)

    def expand(self) -> Polynomial:
        """The expansion as a single exact polynomial in n.

        Over the common denominator L = (largest dimension)!, the term
        c * F_(n+shift)^k is the integer polynomial
        c * (L / k!) * (n+shift)(n+shift+1)...(n+shift+k-1); the integer
        sum is divided by L once.
        """
        top = max((dim for _, dim, _ in self.terms), default=0)
        denom = factorial(top)
        acc = [0] * (top + 1)
        for c, dim, shift in self.terms:
            weight = c * (denom // factorial(dim))
            for i, x in enumerate(_rising_product(shift, dim)):
                acc[i] += weight * x
        return Polynomial(Fraction(x, denom) for x in acc)


def _rising_product(start: int, count: int) -> list[int]:
    """Integer coefficients, lowest power first, of the polynomial
    (n+start)(n+start+1)...(n+start+count-1) in n."""
    coeffs = [1]
    for a in range(start, start + count):
        # Multiply by (n + a) in place, highest power first.
        coeffs.append(0)
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = coeffs[i - 1] + a * coeffs[i]
        coeffs[0] *= a
    return coeffs


#: Term builders, tag -> (p -> terms), one per formula expressed as a
#: figurate term list; the formulas are given in the module docstring.
_TERM_BUILDERS = {
    "eq5": lambda p: (
        ((-1) ** (i - 1) * factorial(p - i + 1) * stirling2(p, p - i + 1), p - i + 2, 0)
        for i in range(1, p + 1)
    ),
    "alt1": lambda p: (
        (factorial(j) * stirling2(p, j), j + 1, 1 - j) for j in range(1, p + 1)
    ),
    "alt2": lambda p: ((eulerian_first(p, j), p + 1, j - p) for j in range(1, p + 1)),
    "alt3": lambda p: (
        (factorial(j - 1) * stirling2(p + 1, j), j, 1 - j) for j in range(1, p + 2)
    ),
    "power_ml1": lambda p: (((-1) ** ell * c_closed(p, ell), p - ell, 0) for ell in range(p)),
}

#: Tags expressed as figurate term lists.
TERM_TAGS = tuple(_TERM_BUILDERS)


@lru_cache(maxsize=None)
def representation(tag: str, p: int) -> Representation:
    """Build the term list for one of the TERM_TAGS formulas."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if tag not in _TERM_BUILDERS:
        raise ValueError(f"unknown term formula {tag!r}; expected one of {TERM_TAGS}")
    return Representation(tag, p, tuple(_TERM_BUILDERS[tag](p)))


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _evaluate_terms(tag: str, n: int, p: int) -> int:
    _check_n(n)
    return representation(tag, p).evaluate(n)


def sum_brute(n: int, p: int) -> int:
    """S_p(n) by direct accumulation; the oracle for every formula here."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    _check_n(n)
    return sum(r**p for r in range(1, n + 1))


def power_via_ml1(n: int, p: int) -> int:
    """n^p through the alternating figurate expansion, for n >= 0."""
    return _evaluate_terms("power_ml1", n, p)


def sum_eq5(n: int, p: int) -> int:
    """S_p(n) via the eq5 expansion."""
    return _evaluate_terms("eq5", n, p)


def sum_stirling(n: int, p: int) -> int:
    """S_p(n) via the alt1 (second-kind Stirling) expansion."""
    return _evaluate_terms("alt1", n, p)


def sum_eulerian(n: int, p: int) -> int:
    """S_p(n) via the alt2 (first-kind Eulerian) expansion."""
    return _evaluate_terms("alt2", n, p)


def sum_variant(n: int, p: int) -> int:
    """S_p(n) via the alt3 expansion."""
    return _evaluate_terms("alt3", n, p)


def _triangular(n: int) -> int:
    return figurate(n, 2)


def _sum_squares(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6


@lru_cache(maxsize=None)
def faulhaber_coefficients(p: int) -> tuple[Fraction, ...]:
    """Coefficients (q_0, ..., q_(k-1)) of the Faulhaber form of S_p(n):

        S_p(n) = S_2(n)  * sum_j q_j T_n^j   for even p = 2k,
        S_p(n) = T_n^2   * sum_j q_j T_n^j   for odd  p = 2k+1,

    solved exactly from sampled values of S_p(n) after dividing out the
    prefactor; the solution is validated at extra sample points.
    """
    if p < 2:
        raise ValueError(f"Faulhaber form requires p >= 2, got {p}")
    count = p // 2 if p % 2 == 0 else (p - 1) // 2
    even = p % 2 == 0

    def prefactor(n: int) -> int:
        return _sum_squares(n) if even else _triangular(n) ** 2

    samples = range(1, count + 1)
    matrix = [
        [Fraction(_triangular(n)) ** j for j in range(count)] for n in samples
    ]
    rhs = [Fraction(sum_brute(n, p), prefactor(n)) for n in samples]
    coeffs = _solve_exact(matrix, rhs)

    for n in range(count + 1, count + 4):
        t = _triangular(n)
        value = prefactor(n) * sum(c * t**j for j, c in enumerate(coeffs))
        if value != sum_brute(n, p):
            raise RuntimeError(
                f"internal error: Faulhaber solve for p={p} fails at n={n}"
            )
    return tuple(coeffs)


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fraction for a small square system."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise RuntimeError("internal error: singular Faulhaber system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def faulhaber_eval(n: int, p: int) -> int:
    """S_p(n) via the Faulhaber form; exact, p >= 2, n >= 0."""
    _check_n(n)
    coeffs = faulhaber_coefficients(p)
    t = _triangular(n)
    pre = _sum_squares(n) if p % 2 == 0 else t**2
    value = pre * sum(c * t**j for j, c in enumerate(coeffs))
    if value.denominator != 1:
        raise RuntimeError(f"internal error: Faulhaber value for ({n},{p}) not integral")
    return int(value)


def expand_symbolic(p: int, tag: str) -> Polynomial:
    """The named representation expanded into one polynomial in n.

    The sum formulas (eq5, alt1, alt2, alt3, faulhaber) all expand to the
    degree-(p+1) polynomial for S_p(n); power_ml1 expands to the monomial
    n^p. The brute tag has no symbolic form.
    """
    if tag in TERM_TAGS:
        return representation(tag, p).expand()
    if tag == "faulhaber":
        coeffs = faulhaber_coefficients(p)
        t_poly = figurate_polynomial(2)
        pre = (
            Polynomial((0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
            if p % 2 == 0
            else t_poly * t_poly
        )
        acc = Polynomial.zero()
        power = Polynomial.constant(1)
        for c in coeffs:
            acc = acc + power.scale(c)
            power = power * t_poly
        return pre * acc
    raise ValueError(f"no symbolic expansion for tag {tag!r}")


def evaluate_formula(tag: str, n: int, p: int) -> int:
    """Evaluate any FORMULA_TAGS member at (n, p)."""
    if tag == "brute":
        return sum_brute(n, p)
    if tag == "faulhaber":
        return faulhaber_eval(n, p)
    if tag in _TERM_BUILDERS:
        return _evaluate_terms(tag, n, p)
    raise ValueError(f"unknown formula {tag!r}; expected one of {FORMULA_TAGS}")
