"""The coefficients c(p, ell) expanding n^p over figurate numbers.

n^p = sum over ell of (-1)^ell * c(p, ell) * F_n^(p - ell), and every
route here computes the same c(p, ell) by a different mechanism:

* closed:      (p - ell)! * S(p, p - ell) with S of the second kind.
* enum_k:      sum of p! / prod((k_i + 1)!) over the constrained
               nonnegative tuples of enumeration.enumerate_k_tuples,
               read as the (head, block) pairs it flattens (_k_pairs).
* enum_j:      sum of p! / prod(j_i!) over the positive tuples of
               enumeration.enumerate_j_tuples (_j_pairs).
* recurrence:  c(p, ell) = (p - ell) * [c(p-1, ell) + c(p-1, ell-1)],
               reading c(p-1, .) as zero outside 0..p-2.
* decompose:   with j = p - ell, group the enum_j sum by the number t of
               parts >= 2: sum over t <= min(j, ell) of C(j, t) times the
               sum of p! / prod(s_i!) over compositions of p + t - j into
               t parts, each >= 2 (and p! outright for j = p).
* eulerian2:   (p - ell)! * sum over i of <<ell, i>> * C(p + ell - 1 - i, 2*ell)
               with second-kind Eulerian numbers, the binomials stepped
               down from one math.comb per call.
* alternating: with j = p - ell, the inclusion-exclusion surjection count
               sum over r of (-1)^r * C(j, r) * (j - r)^p, r paired with
               j - r, read from the route's own memos of p-th powers and half
               rows of signed binomials (_POWERS, _SIGNED), not a row table.

Every route but closed and recurrence also keeps each value it returns
for p <= ROW_CAP, in a dict of its own that no other route reads
(_ENUM_K_VALUES, _ENUM_J_VALUES, _DECOMPOSE_VALUES, _EULERIAN2_VALUES,
_ALTERNATING_VALUES), so a repeated point costs one lookup. Each checks
(p, ell) before the lookup, so a float never reads an int's entry, and
publishes a value once, whole, after computing it; a route that raises
publishes nothing.

Every route is the module function c_<name>(p, ell) with 0 <= ell <= p - 1,
and ROUTE_TABLE is the one place a route is named: it maps each name, in
canonical order, to whether the route is enumerative. coefficient()
resolves c_<name> when it is called, so it always runs the function the
module holds at that moment.

certify() runs them all (enumerative ones behind a size guard) and
reports whether they agree; their agreement is the checkable content of
the whole construction.

The table routes read rows by _RowTable.row() (its docstring gives the
policy) and the closed route its one value by combinatorics.stirling2(),
so a cold large p never builds a whole triangle.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate, repeat

from .combinatorics import _EULERIAN2, ROW_CAP, _padded, _RowTable, stirling2
from .enumeration import _EMPTY_BLOCK, _check_pair, _j_pairs, _k_pairs, enumerate_compositions

#: Route name -> enumerative, in the canonical order used everywhere
#: output is serialized. An enumerative route's cost grows like
#: C(p-1, j-1) summed over j, so it is skipped or refused for p above the
#: size guard (see split_routes).
ROUTE_TABLE = {
    "closed": False,
    "enum_k": True,
    "enum_j": True,
    "recurrence": False,
    "decompose": True,
    "eulerian2": False,
    "alternating": False,
}

ROUTES = tuple(ROUTE_TABLE)

DEFAULT_SIZE_GUARD = 14


def _check_j(p: int, j: int) -> None:
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if not 1 <= j <= p - 1:
        raise ValueError(f"j must lie in 1..{p - 1}, got {j}")


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"{num} not divisible by {den}")
    return q


#: Each enumerative route's block weights, kept for the process beside
#: its family's blocks: id(block) -> (block, L, N), with d_t the
#: denominator of tuple t, prod((t_i + 1)!) for the k-route and prod(t_i!)
#: for the j-route, L = lcm of the d_t and N = sum of L // d_t over the
#: block. Holding the block keeps its id from being reused, an entry is
#: published whole, and, as a family's memo never replaces a block, this
#: memo holds none it does not.
_K_WEIGHTS: dict = {}
_J_WEIGHTS: dict = {}


def _factorials(p: int) -> list[int]:
    return list(accumulate(range(1, p + 1), operator.mul, initial=1))  # 0!..p!


def _multinomial_sum(pairs, factorials: list[int], shift: int, weighed: dict) -> int:
    """Sum of p! / prod((s_i + shift)!) over the tuples (s_1, s_2, ...)
    head + t of the given (head, block) pairs, t running over block
    (enumeration._k_pairs), each factorial read from factorials, the
    caller's table of 0!..p!, so every s_i + shift must lie in 0..p.

    For each head, q = p! / prod over the head, checked exact (as
    0! = 1! = 1, its zeros are skipped at either shift). A head whose
    block is _EMPTY_BLOCK is a whole tuple and weighs q; otherwise each
    of its tuples t weighs q // d_t, d_t the product over t. q is a
    multiple of every d_t exactly when it is one of L = lcm(d_t), and then
    the block weighs q // L * N, N the sum of L // d_t: one division per
    head. A block's L and N depend on the block and shift alone, so they
    are computed once from its tuples and kept in weighed, the caller's
    memo for that shift. When L does not divide q, the first d_t of the
    block that does not is named in the error. The k/j routes make their
    stream, which refuses an invalid request, before their table.
    """
    fact_p = factorials[-1]
    weight = factorials[shift:].__getitem__
    total = 0
    for head, block in pairs:
        q = _exact_div(fact_p, math.prod(map(weight, filter(None, head))))
        if block is _EMPTY_BLOCK:
            total += q
            continue
        held = weighed.get(id(block))
        if held is None:
            dens = [math.prod(map(weight, t)) for t in block]
            lcm = math.lcm(*dens)
            held = weighed[id(block)] = (block, lcm, sum(map(lcm.__floordiv__, dens)))
        _, lcm, n = held
        share, r = divmod(q, lcm)
        if r:
            dens = (math.prod(map(weight, t)) for t in block)
            raise RuntimeError(f"{q} not divisible by {next(d for d in dens if q % d)}")
        total += share * n
    return total


def c_closed(p: int, ell: int) -> int:
    """(p - ell)! * S(p, p - ell), with S from combinatorics.stirling2(),
    which stays apart from the recurrence and alternating routes at every
    p (see its docstring), so certify() still compares independent
    computations."""
    _check_pair(p, ell)
    j = p - ell
    return math.factorial(j) * stirling2(p, j)


#: The enumerative routes' own values, one dict per route, read by no
#: other route: (p, ell) -> c(p, ell) as the route returned it, published
#: once, whole, after its stream has finished, for p <= ROW_CAP only: the
#: bound of _EULERIAN2_VALUES. Behind the size guard the CLI fills at most
#: the 105 points p <= 14, 3.0 KiB of int objects and 10.3 KiB of keys and
#: dict per route, and no Tier-1 test leaves more than the 136 points
#: p <= 16, 3.9 KiB of int objects (sys.getsizeof, CPython 3.11).
_ENUM_K_VALUES: dict = {}
_ENUM_J_VALUES: dict = {}
_DECOMPOSE_VALUES: dict = {}


def c_enum_k(p: int, ell: int) -> int:
    """Sum of p! / prod((k_i + 1)!) over the admissible nonnegative tuples,
    kept for p <= ROW_CAP (_ENUM_K_VALUES)."""
    _check_pair(p, ell)
    key = p, ell
    value = _ENUM_K_VALUES.get(key)
    if value is None:
        value = _multinomial_sum(_k_pairs(p, ell), _factorials(p), 1, _K_WEIGHTS)
        if p <= ROW_CAP:
            _ENUM_K_VALUES[key] = value
    return value


def c_enum_j(p: int, ell: int) -> int:
    """Sum of p! / prod(j_i!) over the admissible positive tuples, kept for
    p <= ROW_CAP (_ENUM_J_VALUES)."""
    _check_pair(p, ell)
    key = p, ell
    value = _ENUM_J_VALUES.get(key)
    if value is None:
        value = _multinomial_sum(_j_pairs(p, ell), _factorials(p), 0, _J_WEIGHTS)
        if p <= ROW_CAP:
            _ENUM_J_VALUES[key] = value
    return value


def _recurrence_step(prev: Sequence[int], index: int) -> list:
    # c(p, ell) = (p - ell) [c(p-1, ell) + c(p-1, ell-1)]; row index i holds p = i+1
    p = index + 1
    return [(p - ell) * (at + below) for ell, at, below in _padded(prev, p)]


_RECURRENCE = _RowTable((1,), _recurrence_step)  # rows[i] holds p = i + 1


def c_recurrence(p: int, ell: int) -> int:
    """Dynamic programming on (p - ell) * [c(p-1, ell) + c(p-1, ell-1)].

    Reads row p of the recurrence table once; a row the table does not
    store is rolled on columns 0..ell only, O(p * ell) work in O(ell)
    memory.
    """
    _check_pair(p, ell)
    return _RECURRENCE.row(p - 1, ell + 1)[ell]


def _groups(p: int, j: int, top: int) -> list[tuple[int, int, int]]:
    """The groups t = 1..top of decompose_groups, weighed with one table."""
    factorials = _factorials(p)
    streams = ((t, enumerate_compositions(p + t - j, t, 2)) for t in range(1, top + 1))
    return [
        (t, math.comb(j, t), _multinomial_sum(zip(s, repeat(_EMPTY_BLOCK)), factorials, 0, {}))
        for t, s in streams
    ]


def decompose_groups(p: int, j: int) -> list[tuple[int, int, int]]:
    """Per-t groups (t, C(j, t), inner sum) of the decompose route.

    The inner sum for each t runs p! / prod(s_i!) over the compositions
    of p + t - j >= 2t into t parts, each >= 2: t = 1..min(j, p - j), only
    the groups that hold compositions. One 0!..p! table weighs them all.
    Requires 1 <= j <= p - 1.
    """
    _check_j(p, j)
    return _groups(p, j, min(j, p - j))


def c_decompose(p: int, ell: int) -> int:
    """The grouped composition sums at j = p - ell; p! for ell = 0. Kept
    for p <= ROW_CAP (_DECOMPOSE_VALUES)."""
    _check_pair(p, ell)
    key = p, ell
    value = _DECOMPOSE_VALUES.get(key)
    if value is None:
        if ell == 0:
            value = math.factorial(p)
        else:
            value = sum(weight * inner for _, weight, inner in decompose_groups(p, p - ell))
        if p <= ROW_CAP:
            _DECOMPOSE_VALUES[key] = value
    return value


#: The eulerian2 route's own values, read by no other route: (p, ell) ->
#: c(p, ell) as c_eulerian2 returned it, published once, whole, for
#: p <= ROW_CAP only. Filled for every p <= ROW_CAP = 512 it would hold
#: 131,328 values, 36.3 MiB of integer bits (the recurrence table's
#: c(p, ell)), 42.0 MiB as int objects, plus 7.0 MiB of key tuples and
#: 5.0 MiB of dict (sys.getsizeof, CPython 3.11).
_EULERIAN2_VALUES: dict = {}


def c_eulerian2(p: int, ell: int) -> int:
    """(p - ell)! * sum of <<ell, i>> * C(p + ell - 1 - i, 2*ell).

    Row ell of <<., .>> is read once, by _RowTable.row(). Term i has the
    binomial C(k + t, k), k = 2*ell, t = p - ell - 1 - i, zero for t < 0.
    The first comes from math.comb, and each next one steps down as
    C(k + t - 1, k) = C(k + t, k) * t / (k + t), each division checked
    exact by _exact_div, to the last term or t = 0; the sum is one C-level
    dot product with the row. For p <= ROW_CAP the value is kept
    (_EULERIAN2_VALUES), and a later call at the same point returns it
    without reading the row.
    """
    _check_pair(p, ell)
    key = p, ell
    value = _EULERIAN2_VALUES.get(key)
    if value is not None:
        return value
    row = _EULERIAN2.row(ell)
    k, top = 2 * ell, p - ell - 1
    binom = math.comb(k + top, k)
    bottom = max(top - len(row) + 1, 0)
    binoms = [binom, *[binom := _exact_div(binom * t, k + t) for t in range(top, bottom, -1)]]
    value = math.factorial(p - ell) * sum(map(operator.mul, row, binoms))
    if p <= ROW_CAP:
        _EULERIAN2_VALUES[key] = value
    return value


#: The alternating route's own memos, read by no other route: p -> x^p for
#: x = 0, 1, 2, ..., and j -> a_0..a_(j // 2) (see c_alternating), kept for
#: p, j <= ROW_CAP only. Filled for every p, j <= ROW_CAP = 512 they would
#: hold 44.8 MB of powers and 4.2 MB of binomials (from the entries' bit
#: lengths). A row is extended by publishing a new, longer list and a
#: published list is never mutated, so a racing reader sees a complete row.
#: Behind _ALTERNATING_VALUES they pay on a sweep of new points only:
#: fresh `triangle --route alternating --pmax 300` ran about 2.9x as long
#: with neither kept and 1.35x without _SIGNED (2-core host, CPython 3.11).
_POWERS: dict = {}
_SIGNED: dict = {}

#: The alternating route's own values, read by no other route: (p, ell) ->
#: c(p, ell) as c_alternating returned it, published once, whole, for
#: p <= ROW_CAP only; at the same bound and size as _EULERIAN2_VALUES.
_ALTERNATING_VALUES: dict = {}


def c_alternating(p: int, ell: int) -> int:
    """Inclusion-exclusion at j = p - ell: sum of (-1)^r C(j, r) (j - r)^p.

    That is the sum of a_x x^p over x = 0..j, a_x = (-1)^(j - x) C(j, x).
    As a_(j - x) = (-1)^j a_x, it is one C-level dot product of a_x with
    x^p + (-1)^j (j - x)^p over x < j / 2, plus a_(j/2) (j/2)^p for even j,
    both lists from the route's own memos. a_x = a_(x-1) (x - j - 1) / x
    from a_0 = (-1)^j, each division checked exact by _exact_div. The row
    of powers grows in one ascending pass: an even y is (y / 2)^p << p, an
    odd multiple of 3 (y / 3)^p 3^p, and only bases prime to 6 take a pow.
    For p <= ROW_CAP the value is kept (_ALTERNATING_VALUES), and a later
    call at the same point returns it without reading either list.
    """
    _check_pair(p, ell)
    key = p, ell
    value = _ALTERNATING_VALUES.get(key)
    if value is not None:
        return value
    j = p - ell
    half = j // 2
    signed = _SIGNED.get(j)
    if signed is None:
        binom = -1 if j & 1 else 1
        signed = [binom, *[binom := _exact_div(binom * (x - j - 1), x) for x in range(1, half + 1)]]
        if j <= ROW_CAP:
            _SIGNED[j] = signed
    powers = _POWERS.get(p, [0])
    if len(powers) <= j:
        powers = powers[:]  # extended as a copy: the published list is never mutated
        three_p = 3**p
        for y in range(len(powers), j + 1):
            if y & 1:
                powers.append(y**p if y % 3 else powers[y // 3] * three_p)
            else:
                powers.append(powers[y >> 1] << p)
        if p <= ROW_CAP:
            _POWERS[p] = powers
    mirror = operator.sub if j & 1 else operator.add
    total = sum(map(operator.mul, signed, map(mirror, powers, powers[j:half:-1])))
    value = total if j & 1 else total + signed[half] * powers[half]
    if p <= ROW_CAP:
        _ALTERNATING_VALUES[key] = value
    return value


def w_sum(p: int, j: int) -> int:
    """Total weight of the length-j compositions of p containing a part 1.

    Computed one way: the decompose groups t < j, one 0!..p! table for
    all, each inner sum weighted by C(j, t). verify's composition identity
    checks it against the min-part-1 compositions of p that contain a 1.
    Requires 1 <= j <= p - 1 (so the all-ones tuple never sums to p).
    """
    _check_j(p, j)
    return sum(weight * inner for _, weight, inner in _groups(p, j, min(j - 1, p - j)))


def summand_count(p: int, j: int) -> int:
    """Number of individual composition summands in the decompose route,
    computed one way: the Vandermonde sum of C(j, t) * C(p - j - 1, t - 1)
    over t. verify's summand counts check it against the streamed count
    and C(p - 1, j - 1)."""
    _check_j(p, j)
    return sum(math.comb(j, t) * math.comb(p - j - 1, t - 1) for t in range(1, j + 1))


def coefficient(p: int, ell: int, route: str = "closed") -> int:
    """c(p, ell) by the named route, i.e. c_<route>(p, ell). The route
    checks (p, ell) itself, so an invalid pair raises its ValueError."""
    if route not in ROUTE_TABLE:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    return globals()[f"c_{route}"](p, ell)


def split_routes(routes, p: int, size_guard: int) -> tuple[list[str], list[str]]:
    """(run, skipped): the given routes in order, split by whether the
    size guard admits them at p. Only enumerative routes are ever skipped."""
    run: list[str] = []
    skipped: list[str] = []
    for route in routes:
        (skipped if ROUTE_TABLE[route] and p > size_guard else run).append(route)
    return run, skipped


def build_triangle(pmax: int, route: str = "closed") -> tuple[tuple[int, ...], ...]:
    """The rows of c(p, ell) for p = 1..pmax by the named route: rows[p - 1]
    holds c(p, 0..p-1), so pmax is len(rows)."""
    if pmax < 1:
        raise ValueError(f"pmax must be positive, got {pmax}")
    return tuple(
        tuple(coefficient(p, ell, route) for ell in range(p)) for p in range(1, pmax + 1)
    )


class RouteReport(namedtuple("RouteReport", "values skipped")):
    """Per-route values of c(p, ell) at the caller's (p, ell), and whether
    they agree.

    values maps each route run to its value, or to the RuntimeError it
    raised, which agrees with no value. Routes skipped by the size guard
    are listed in the tuple `skipped`, never silently dropped; a skip is
    not a disagreement.
    """

    __slots__ = ()

    @property
    def agree(self) -> bool:
        return len(set(self.values.values())) == 1

    @property
    def value(self) -> int:
        """The common value; meaningful when agree is True."""
        return self.values["closed"]


def certify(p: int, ell: int, size_guard: int = DEFAULT_SIZE_GUARD) -> RouteReport:
    """Evaluate every route at (p, ell), skipping enumerative routes when
    p exceeds size_guard; the report holds values and skips, not p or ell.
    A route that raises RuntimeError reports the error as its value,
    except RecursionError: a route out of stack has not failed a check,
    so it propagates. An invalid (p, ell) raises the ValueError of the
    closed route, which always runs first."""
    run, skipped = split_routes(ROUTES, p, size_guard)
    values = {}
    for route in run:
        try:
            values[route] = coefficient(p, ell, route)
        except RecursionError:
            raise
        except RuntimeError as exc:
            values[route] = exc
    return RouteReport(values, tuple(skipped))
