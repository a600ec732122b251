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
  even p, T_n^2 times such a polynomial for odd p. Its coefficients are
  derived from brute-force sums alone, never from the other formulas, by
  exact division by linear factors (Knuth, "Johann Faulhaber and sums of
  powers", Math. Comp. 61, 1993); any remainder is an internal error.

plus the plain power identity

* power_ml1: n^p = sum over ell of (-1)^ell c(p, ell) F_n^(p-ell).

The figurate value F_n^k is extended to every integer n by the rising
factorial product n(n+1)...(n+k-1)/k!, which vanishes exactly at
n = 0, -1, ..., -(k-1); the shifted arguments in alt1/alt3 rely on that.

Each figurate expansion is a term tuple ((integer coefficient, dimension,
argument shift), ...) that representation() builds from one row read by
_RowTable.row() (the surjection counts j! S(p, j) = c(p, p-j) for eq5,
alt1 and power_ml1, S(p+1, .) for alt3, <p, .> for alt2) and caches; one
evaluator and one symbolic expander read it. The expander works in
integers over the common denominator (largest dimension)!: by Horner
steps, multiplying by (n + a), where the terms' factor ranges nest, and
otherwise by sliding one product of linear factors, dividing out and
multiplying in the factors at its ends. The Faulhaber form is kept as the
integers its derivation produces over L = (p+1)! (_faulhaber_form),
derived and rebuilt by the same two steps, division and multiplication
by (n + a); a Fraction or Polynomial is built only at the edge.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from .combinatorics import _EULERIAN1, _STIRLING2, _surjection_row

# fractions and exact are imported where a polynomial is built, so that
# evaluation never loads them; this block only names them for annotations.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .exact import Polynomial

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

    Computed as C(n+k-1, k) for n >= 1 and as (-1)^k C(-n, k) otherwise,
    the product with every factor negated; that is zero exactly on
    n in {0, -1, ..., -(k-1)}.
    """
    if k < 1:
        raise ValueError(f"dimension must be positive, got {k}")
    return math.comb(n + k - 1, k) if n >= 1 else (-1) ** k * math.comb(-n, k)


def _expand(terms) -> tuple[list[int], int]:
    """A term tuple as one polynomial in n: its integer coefficients,
    lowest power first, and their common denominator.

    Over the common denominator L = (largest dimension)!, the term
    c * F_(n+shift)^k is the integer polynomial
    c * (L / k!) * (n+shift)(n+shift+1)...(n+shift+k-1); the polynomial is
    their integer sum over L.

    Where the factor ranges [shift, shift+k) nest (eq5, alt1, alt3,
    power_ml1), the sum is a Horner form in the Newton basis (Knuth, TAOCP
    Vol. 2, 4.6.4): from the widest term's weight, each narrower range
    multiplies by the linear factors it lacks (_multiply_linear) and adds
    its weight, and the narrowest range's factors come last. Nothing is
    divided.

    Otherwise (alt2) one window holds the product of (n+a) over a in
    [lo, hi). Neighbouring terms differ by a factor or two at the ends, so
    the window reaches each term's [shift, shift+k) by dividing out the
    factors that leave (_divide_linear, which raises RuntimeError on a
    nonzero remainder) and multiplying in those that enter. It is rebuilt
    only when the two ranges are disjoint. A chain of p terms so costs
    O(p^2) integer operations.
    """
    top = max((dim for _, dim, _ in terms), default=0)
    denom = math.factorial(top)
    wide = sorted(terms, key=itemgetter(1), reverse=True)
    if wide and all(a <= s and s + d <= a + e for (_, e, a), (_, d, s) in zip(wide, wide[1:])):
        acc, lo, hi = [0], wide[0][2], wide[0][2] + wide[0][1]
        for c, dim, shift in wide:
            for a in (*range(lo, shift), *range(shift + dim, hi)):
                _multiply_linear(acc, a)
            acc[0] += c * (denom // math.factorial(dim))
            lo, hi = shift, shift + dim
        for a in range(lo, hi):
            _multiply_linear(acc, a)
        return acc, denom
    acc = [0] * (top + 1)
    window, lo, hi = [1], 0, 0
    for c, dim, shift in terms:
        end = shift + dim
        if shift >= hi or end <= lo:
            window, lo, hi = [1], shift, shift
        for a in range(lo, shift):
            _divide_linear(window, a)
        for a in range(end, hi):
            _divide_linear(window, a)
        for a in range(shift, lo):
            _multiply_linear(window, a)
        for a in range(hi, end):
            _multiply_linear(window, a)
        lo, hi = shift, end
        weight = c * (denom // math.factorial(dim))
        for i, x in enumerate(window):
            acc[i] += weight * x
    return acc, denom


def _multiply_linear(coeffs: list[int], a: int) -> None:
    """Multiply the polynomial with integer coefficients `coeffs`, lowest
    power first, by (n + a) in place."""
    coeffs.append(0)
    for i in range(len(coeffs) - 1, 0, -1):
        coeffs[i] = coeffs[i - 1] + a * coeffs[i]
    coeffs[0] *= a


def _divide_linear(coeffs: list[int], a: int) -> None:
    """Divide the polynomial with integer coefficients `coeffs`, lowest
    power first, by (n + a) in place by synthetic division; RuntimeError
    when the remainder is not zero."""
    q = 0
    for i in range(len(coeffs) - 1, 0, -1):
        q = coeffs[i] - a * q
        coeffs[i] = q  # the quotient's coefficient of n^(i-1)
    if coeffs[0] != a * q:
        raise RuntimeError(f"polynomial not divisible by (n + {a})")
    del coeffs[0]


#: Term builders, tag -> (p -> terms), one per formula expressed as a
#: figurate term list; the formulas are given in the module docstring.
_TERM_BUILDERS = {
    "eq5": lambda p: (
        ((-1) ** (i - 1) * c, p - i + 2, 0) for i, c in enumerate(_surjection_row(p)[:0:-1], 1)
    ),
    "alt1": lambda p: ((c, j + 1, 1 - j) for j, c in enumerate(_surjection_row(p)) if j),
    "alt2": lambda p: ((e, p + 1, t + 1 - p) for t, e in enumerate(_EULERIAN1.row(p - 1))),
    "alt3": lambda p: (
        (math.factorial(j - 1) * s, j, 1 - j) for j, s in enumerate(_STIRLING2.row(p + 1)) if j
    ),
    "power_ml1": lambda p: (
        ((-1) ** ell * c, p - ell, 0) for ell, c in enumerate(_surjection_row(p)[:0:-1])
    ),
}

#: Tags expressed as figurate term lists.
TERM_TAGS = tuple(_TERM_BUILDERS)

#: Entries each lru cache here keeps. An entry grows like p^2 digits; 64
#: hold lib-warm's working set (55 term lists, 11 Faulhaber forms), and a
#: sweep of p = 2..400 peaks at 66 MB where no bound took 188 MB.
_CACHE_SIZE = 64


@lru_cache(maxsize=_CACHE_SIZE)
def representation(tag: str, p: int) -> tuple[tuple[int, int, int], ...]:
    """The terms (coefficient, dimension, shift) of one of the TERM_TAGS
    formulas, each standing for coefficient * F_(n+shift)^dimension."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if tag not in _TERM_BUILDERS:
        raise ValueError(f"unknown term formula {tag!r}; expected one of {TERM_TAGS}")
    return tuple(_TERM_BUILDERS[tag](p))


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _evaluate_terms(tag: str, n: int, p: int) -> int:
    _check_n(n)
    return sum(c * figurate(n + shift, dim) for c, dim, shift in representation(tag, p))


def sum_brute(n: int, p: int) -> int:
    """S_p(n) by direct accumulation; the oracle for every formula here."""
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    _check_n(n)
    return sum(r**p for r in range(1, n + 1))


def _brute_sums(p: int, count: int) -> list[int]:
    """S_p(0), ..., S_p(count - 1) by sum_brute's accumulation of r^p."""
    return list(accumulate((r**p for r in range(1, count)), initial=0))


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


@lru_cache(maxsize=_CACHE_SIZE)
def _faulhaber_form(p: int) -> tuple[tuple[int, ...], int]:
    """The integers (r_0, ..., r_(k-1)), k = p // 2, and L = (p + 1)! of
    the Faulhaber form of S_p(n), with u = n(n + 1):

        S_p(n) = (2n + 1) u   * sum_j r_j u^j / L   for even p,
        S_p(n) =          u^2 * sum_j r_j u^j / L   for odd  p.

    S_p(n) is interpolated from _brute_sums at n = 0..p+1 by its forward
    differences d_k as sum_k d_k C(n, k), the terms (d_k, k, 1 - k) as
    d_k C(n, k) = d_k F_(n+1-k)^k. Their ranges nest, so _expand gives over
    L the integer polynomial N by Horner's rule in the Newton basis.
    Dividing N exactly by n(n + 1) for even p, and by n^2 (n + 1) for odd
    p, leaves R = w * sum_j r_j u^j with w = 2n + 1 or n + 1. As w(0) = 1,
    r_0 = R(0); R - r_0 w then divides exactly by n(n + 1), and the next
    r_j is read the same way. Every division is checked for a zero
    remainder; a nonzero one, or other than p // 2 integers, raises
    RuntimeError.
    """
    if p < 2:
        raise ValueError(f"Faulhaber form requires p >= 2, got {p}")
    diffs = _brute_sums(p, p + 2)
    heads = []
    for _ in range(p + 2):
        heads.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    rest, denom = _expand([(d, k, 1 - k) for k, d in enumerate(heads)])
    odd = p % 2
    for a in (0, 1, 0)[: 2 + odd]:
        _divide_linear(rest, a)
    form = []
    while any(rest):
        r = rest[0]
        form.append(r)
        # rest - r w has a zero constant term; dropping it divides by n.
        rest[1] -= (2 - odd) * r
        del rest[0]
        _divide_linear(rest, 1)
    if len(form) != p // 2:
        raise RuntimeError(f"S_{p}(n) has no exact Faulhaber form")
    return tuple(form), denom


@lru_cache(maxsize=_CACHE_SIZE)
def faulhaber_coefficients(p: int) -> tuple[Fraction, ...]:
    """Coefficients (q_0, ..., q_(k-1)), k = p // 2, of the Faulhaber form of S_p(n):

        S_p(n) = S_2(n)  * sum_j q_j T_n^j   for even p,
        S_p(n) = T_n^2   * sum_j q_j T_n^j   for odd  p.

    As T_n = n(n + 1) / 2, q_j = r_j * (6 or 4) * 2^j / L, with r_j and L
    from _faulhaber_form(p).
    """
    from fractions import Fraction

    form, denom = _faulhaber_form(p)
    scale = 4 if p % 2 else 6
    return tuple(Fraction(r * scale << j, denom) for j, r in enumerate(form))


def faulhaber_eval(n: int, p: int) -> int:
    """S_p(n) via the Faulhaber form; exact, p >= 2, n >= 0.

    Horner's rule in u = n(n + 1) over the integers r_j of
    _faulhaber_form(p), times the prefactor (2n + 1) u or u^2, is divided
    by L with one divmod; a nonzero remainder raises RuntimeError.
    """
    _check_n(n)
    form, denom = _faulhaber_form(p)
    u = n * (n + 1)
    acc = 0
    for r in reversed(form):
        acc = acc * u + r
    pre = u * u if p % 2 else (2 * n + 1) * u
    value, rem = divmod(pre * acc, denom)
    if rem:
        raise RuntimeError(f"Faulhaber value for ({n},{p}) not integral")
    return value


def expand_symbolic(p: int, tag: str) -> Polynomial:
    """The named representation expanded into one polynomial in n.

    The sum formulas (eq5, alt1, alt2, alt3, faulhaber) all expand to the
    degree-(p+1) polynomial for S_p(n); power_ml1 expands to the monomial
    n^p. The brute tag has no symbolic form.

    The Faulhaber form is rebuilt over L by Horner's rule in n(n + 1) over
    the integers (0, r_0, r_1, ...) of _faulhaber_form(p) for even p, then
    times (2n + 1), and over (0, 0, r_0, r_1, ...) for odd p.
    """
    from fractions import Fraction

    from .exact import Polynomial

    if tag in TERM_TAGS:
        coeffs, denom = _expand(representation(tag, p))
    elif tag == "faulhaber":
        form, denom = _faulhaber_form(p)
        coeffs = [form[-1]]
        for r in reversed((0,) * (1 + p % 2) + form[:-1]):
            _multiply_linear(coeffs, 0)
            _multiply_linear(coeffs, 1)
            coeffs[0] += r
        if p % 2 == 0:
            coeffs = [x + 2 * y for x, y in zip(coeffs + [0], [0] + coeffs)]
    else:
        raise ValueError(f"no symbolic expansion for tag {tag!r}")
    return Polynomial(Fraction(x, denom) for x in coeffs)


def evaluate_formula(tag: str, n: int, p: int) -> int:
    """Evaluate any FORMULA_TAGS member at (n, p)."""
    if tag == "brute":
        return sum_brute(n, p)
    if tag == "faulhaber":
        return faulhaber_eval(n, p)
    if tag in _TERM_BUILDERS:
        return _evaluate_terms(tag, n, p)
    raise ValueError(f"unknown formula {tag!r}; expected one of {FORMULA_TAGS}")
