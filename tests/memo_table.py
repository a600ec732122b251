"""The process memos of figurate, each declared once with its contract.

MEMOS lists the nine module-level dicts that figurate keeps for the
process. A call must return the certified value whatever earlier calls
left in them, so each entry states a sweep of calls with values from no
memo, run cold and then warm, during which no published value changes (a
longer list is a new list); the definition each entry must equal; a
bound; and a race of four threads that fill the memos from empty at a
switch interval of 1 µs. tests/conftest.py empties these memos around
every test and tests/test_process_memos.py checks the contract at Tier-1
scale. Run as a script (standard library only), this module checks it at
CI scale and prints each memo's rows, entries and KiB:

    PYTHONPATH=src python tests/memo_table.py
"""

import functools
import importlib
import math
import operator
import sys
import threading
from typing import Callable, NamedTuple

from figurate import coefficients, enumeration
from figurate.coefficients import (
    ROUTES,
    RouteReport,
    c_alternating,
    c_closed,
    c_enum_j,
    c_enum_k,
    c_eulerian2,
    certify,
)
from figurate.combinatorics import ROW_CAP
from figurate.enumeration import enumerate_j_tuples, enumerate_k_tuples

#: Index of a memo's sweep size: Tier-1's, or CI's (this module as a script).
TIER1, CI = 0, 1


def race(work, threads=4, rounds=1, reset=lambda: None):
    """Run work(t) in threads t = 0..threads-1 at once, switching as often
    as the interpreter allows, `rounds` times, each after reset(). Returns
    each round's results by thread; raises what a thread raised."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        for _ in range(rounds):
            reset()
            start = threading.Barrier(threads, timeout=60)
            got = [None] * threads  # what work(t) returned, or raised

            def run(t):
                try:
                    start.wait()
                    got[t] = work(t)
                except BaseException as error:
                    got[t] = error

            pool = [threading.Thread(target=run, args=(t,)) for t in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in pool), "a thread still runs"
            for value in got:
                if isinstance(value, BaseException):
                    raise value
            results.append(got)
        return results
    finally:
        sys.setswitchinterval(interval)


def recursive_k_tuples(p, ell):
    """The k-tuples by one recursion level per entry, pruned by a
    feasibility test at every level: the reference for the generator
    that takes the last entries from suffix blocks."""
    supports = (0,) if ell == 0 else range(1, ell + 1)
    for s in supports:
        yield from _recursive_k_fixed(p + s - ell - 1, ell, s)


def _max_spaced(slots, first_blocked):
    if first_blocked:
        slots -= 1
    return max(0, (slots + 1) // 2)


def _recursive_k_fixed(m, total, positives):
    if m == 0:
        if total == 0 and positives == 0:
            yield ()
        return

    buf = [0] * m

    def feasible(slots, rem, pos, prev_positive):
        if pos == 0:
            return rem == 0
        return pos <= rem and pos <= _max_spaced(slots, prev_positive)

    def rec(i, rem, pos, prev_positive):
        if i == m:
            yield tuple(buf)
            return
        left = m - i - 1
        if feasible(left, rem, pos, False):
            buf[i] = 0
            yield from rec(i + 1, rem, pos, False)
        if not prev_positive and pos >= 1:
            for v in range(1, rem - (pos - 1) + 1):
                if feasible(left, rem - v, pos - 1, True):
                    buf[i] = v
                    yield from rec(i + 1, rem - v, pos - 1, True)
            buf[i] = 0

    yield from rec(0, total, positives, False)


def recursive_j_tuples(p, ell):
    """The j-tuples by one recursion level per entry: the reference for
    the generator that takes the last entries from suffix blocks."""
    bigs = (0,) if ell == 0 else range(1, ell + 1)
    for t in bigs:
        m = p + t - ell - 1
        yield from _recursive_j_fixed(m, ell + m, t)


def _recursive_j_fixed(m, total, bigs):
    if m == 0:
        if total == 0 and bigs == 0:
            yield ()
        return

    buf = [0] * m

    def feasible(slots, rem, big, prev_big):
        excess = rem - slots  # each slot carries at least 1
        if excess < 0:
            return False
        if big == 0:
            return excess == 0
        return big <= excess and big <= _max_spaced(slots, prev_big)

    def rec(i, rem, big, prev_big):
        if i == m:
            yield tuple(buf)
            return
        left = m - i - 1
        if feasible(left, rem - 1, big, False):
            buf[i] = 1
            yield from rec(i + 1, rem - 1, big, False)
        if not prev_big and big >= 1:
            for v in range(2, rem - left + 1):
                if feasible(left, rem - v, big - 1, True):
                    buf[i] = v
                    yield from rec(i + 1, rem - v, big - 1, True)
            buf[i] = 0

    yield from rec(0, total, bigs, False)


@functools.cache
def block_bound():
    """Tuples any sequence of calls can leave in one family's block memo,
    from _block_width and _suffix_count alone.

    A call at (p, ell) builds blocks of width at most w = _block_width(ell)
    and content (excess, for the j-family) at most ell, and w shrinks as
    ell grows: past the first ell with w = 0 no call builds a block. For
    each width u take the largest content c any call reaches at u. The
    blocks of width u then hold the suffixes of content at most c,
    _suffix_count(u, c), behind no positive entry, and those behind one,
    which start with an entry 0 (1 for j), _suffix_count(u - 1, c).
    """
    widest = {}  # width -> the largest content a call builds at it
    ell, last = 1, enumeration._TAIL_WIDTH
    while True:
        w = enumeration._block_width(ell)
        assert w <= last, ell  # never wider for more content
        if not w:
            break
        for u in range(1, w + 1):
            widest[u] = ell
        ell, last = ell + 1, w
    return sum(
        enumeration._suffix_count(u, c) + enumeration._suffix_count(u - 1, c)
        for u, c in widest.items()
    )


class Memo(NamedTuple):
    """One process memo and its contract. Each call(p, ell) reads and
    fills the memo; expect(p, ell) is the value it must return, from no
    memo."""

    name: str  # "module._NAME" of the dict in figurate
    sweep: tuple  # (call, expect, order): order(top) lists the points (p, ell)
    tops: tuple  # the sweep's largest p at TIER1 and at CI
    race: tuple  # (call, expect, points), run `rounds` times
    rounds: int
    holds: Callable  # (key, value) -> whether the entry equals its definition
    bound: Callable  # memo -> (held, limit)
    entries: Callable = list  # value -> the entries it holds

    @property
    def memo(self) -> dict:
        module, name = self.name.split(".")
        return getattr(importlib.import_module(f"figurate.{module}"), name)


def _pairs(top):
    return [(p, ell) for p in range(1, top + 1) for ell in range(p)]


def _blocks(name, family, oracle, low):
    fixed = _recursive_j_fixed if low else _recursive_k_fixed

    def stream(p, ell):
        return list(family(p, ell))

    def listed(p, ell):
        return list(oracle(p, ell))

    def holds(key, block):
        *fixed_key, prev = key  # behind a positive (big) entry: the first is low
        return block and block == [t for t in fixed(*fixed_key) if not (prev and t[0] > low)]

    def bound(blocks):
        return sum(map(len, blocks.values())), block_bound()

    racing = (stream, listed, [(16, 8)])
    return Memo(name, (stream, listed, _pairs), (10, 16), racing, 1, holds, bound)


def _certified(p, ell):
    """certify's report when every route agrees with c_closed."""
    return RouteReport(dict.fromkeys(ROUTES, c_closed(p, ell)), ())


def _weights(name, blocks, route, shift):
    def holds(key, value):
        block, lcm, n = value
        dens = [math.prod(math.factorial(e + shift) for e in t) for t in block]
        return (
            key == id(block)
            and dens
            and lcm == math.lcm(*dens)
            and n == sum(lcm // d for d in dens)
        )

    def bound(weights):
        kept = set(map(id, MEMOS[blocks].memo.values()))
        assert weights.keys() <= kept, (name, "a block its family does not keep")
        return len(weights), len(kept)

    racing = (route, c_closed, [(p, ell) for p in range(8, 13) for ell in range(p)])
    sweep = (certify, _certified, _pairs)
    return Memo(name, sweep, (10, 14), racing, 5, holds, bound, lambda value: value[1:])


#: The alternating races' points: p = 60, 200 and 400, ell = p/10..9p/10.
_FRACTIONS = sorted({(p, p * f // 10) for p in (60, 200, 400) for f in range(1, 10)})
#: The eulerian2 races' points, which share their ell, so that racing
#: threads widen windows up and down.
_COLUMNS = [(p, ell) for ell in range(2, 200, 6) for p in range(ell + 1, 211, 9)]


def _unkept(route, values):
    """route(p, ell) with the value it kept at (p, ell), if any, dropped
    first, so that a repeated point reads the route's rows and windows
    again; in a race, another thread can still publish that value before
    the call reads it."""

    def call(p, ell):
        values.pop((p, ell), None)
        return route(p, ell)

    return call


def _alternating(name, holds):
    route = _unkept(c_alternating, coefficients._ALTERNATING_VALUES)

    def by_j(top):  # j ascending: each next j extends every row of powers by one base
        return [(p, p - j) for j in range(1, top + 1) for p in range(j, top + 1)]

    def bound(memo):
        return max(memo, default=0), ROW_CAP

    racing = (route, c_closed, _FRACTIONS)
    return Memo(name, (route, c_closed, by_j), (40, 200), racing, 5, holds, bound)


def _powers(p, n):
    return [x**p for x in range(n)]


def _signed_half(j):
    return [(-1) ** (j - x) * math.comb(j, x) for x in range(j // 2 + 1)]


def _is_column(ell, value):
    """A window is one run of its column C(2 ell + t, 2 ell), from t = hi
    down to some t >= 0."""
    hi, window = value
    lo = hi - len(window) + 1
    return 0 <= lo and window == [math.comb(2 * ell + t, 2 * ell) for t in range(hi, lo - 1, -1)]


def _windows(name):
    route = _unkept(c_eulerian2, coefficients._EULERIAN2_VALUES)

    def middle_out(top):  # p from top / 2 outwards, so that windows widen at both ends
        return sorted(_pairs(top), key=lambda point: abs(2 * point[0] - top))

    def bound(windows):
        return max((hi + ell for ell, (hi, _) in windows.items()), default=0), ROW_CAP - 1

    sweep, racing = (route, c_closed, middle_out), (route, c_closed, _COLUMNS)
    return Memo(name, sweep, (40, 200), racing, 10, _is_column, bound, operator.itemgetter(1))


def surjections(p, ell):
    """c(p, ell) as the inclusion-exclusion surjection count at j = p - ell,
    from math alone: sum of (-1)^r C(j, r) (j - r)^p over r."""
    j = p - ell
    return sum((-1) ** r * math.comb(j, r) * (j - r) ** p for r in range(j))


def _values(name, route, racing):
    def past_cap(top):  # every point to top, then points on either side of the cap
        ends = [(p, ell) for p in (ROW_CAP, ROW_CAP + 1) for ell in (0, 1, 20, p - 20, p - 1)]
        return [*_pairs(top), *ends]

    def holds(key, value):
        return value == surjections(*key)

    def bound(values):
        return max((p for p, _ in values), default=0), ROW_CAP

    sweep = (route, c_closed, past_cap)
    return Memo(name, sweep, (40, 200), (route, c_closed, racing), 5, holds, bound, lambda v: [v])


MEMOS = {
    memo.name: memo
    for memo in (
        _blocks("enumeration._K_BLOCKS", enumerate_k_tuples, recursive_k_tuples, 0),
        _blocks("enumeration._J_BLOCKS", enumerate_j_tuples, recursive_j_tuples, 1),
        _weights("coefficients._K_WEIGHTS", "enumeration._K_BLOCKS", c_enum_k, 1),
        _weights("coefficients._J_WEIGHTS", "enumeration._J_BLOCKS", c_enum_j, 0),
        _alternating("coefficients._POWERS", lambda p, row: row == _powers(p, len(row))),
        _alternating("coefficients._SIGNED", lambda j, row: row == _signed_half(j)),
        _windows("coefficients._BINOM_WINDOWS"),
        _values("coefficients._ALTERNATING_VALUES", c_alternating, _FRACTIONS),
        _values("coefficients._EULERIAN2_VALUES", c_eulerian2, _COLUMNS),
    )
}


def clear():
    """Empty every memo MEMOS lists."""
    for memo in MEMOS.values():
        memo.memo.clear()


def check_definitions(memo):
    """Every entry equals its definition, and the memo is within its bound."""
    for key, value in memo.memo.items():
        assert memo.holds(key, value), (memo.name, key)
    held, limit = memo.bound(memo.memo)
    assert held <= limit, (memo.name, held, limit)


def _copy_lists(value):
    """The value with each list in it copied; what the lists hold is immutable."""
    if isinstance(value, list):
        return value[:]
    return tuple(map(_copy_lists, value)) if isinstance(value, tuple) else value


def check_sweep(memo, scale):
    """From empty memos the sweep returns the expected values, cold and
    then warm. After each tenth of the cold pass every value the memo
    published before is still as it was published, so a longer list must
    be a new one. Then every entry equals its definition, within the
    memo's bound."""
    call, expect, order = memo.sweep
    points = order(memo.tops[scale])
    clear()
    cold, published = [], {}
    for tenth in range(1, 11):
        cold += [call(*point) for point in points[len(cold) : tenth * len(points) // 10]]
        for value, as_published in published.values():
            assert value == as_published, (memo.name, "a published value changed")
        for value in memo.memo.values():
            published.setdefault(id(value), (value, _copy_lists(value)))
    assert memo.memo, (memo.name, "the sweep leaves it empty")
    for point, value in zip(points, cold):
        assert value == expect(*point), (memo.name, "cold", point)
        assert call(*point) == value, (memo.name, "warm", point)
    check_definitions(memo)


def check_race(memo):
    """Four threads run the race's points from empty memos at once, two
    forward and two backward, `rounds` times: every value is the expected
    one, and every entry left equals its definition, within the memo's
    bound."""
    call, expect, points = memo.race
    expected = [expect(*point) for point in points]

    def work(t):
        return [call(*point) for point in points[:: 1 if t % 2 else -1]]

    for got in race(work, rounds=memo.rounds, reset=clear):
        for t, values in enumerate(got):
            assert values == expected[:: 1 if t % 2 else -1], (memo.name, t)
    check_definitions(memo)


def report(memo):
    """Rows, entries and KiB the memo holds, and its bound."""
    rows = memo.memo.values()
    entries = [x for value in rows for x in memo.entries(value)]
    kib = sum(map(sys.getsizeof, entries)) / 1024
    held, limit = memo.bound(memo.memo)
    return (
        f"{memo.name}: {len(rows)} rows, {len(entries)} entries, {kib:.0f} KiB,"
        f" bound {held} <= {limit}"
    )


if __name__ == "__main__":
    assert not any(memo.memo for memo in MEMOS.values()), "memos not empty at start"
    for memo in MEMOS.values():
        check_sweep(memo, CI)
        print(report(memo))
        check_race(memo)
