"""Classical counting families, computed exactly by their recurrences.

Triangles covered: unsigned Stirling numbers of the first kind s(k,r),
Stirling numbers of the second kind S(k,j), Eulerian numbers of the first
kind, and Eulerian numbers of the second kind. Each family is a two-term
triangular recurrence (Concrete Mathematics, 6.1-6.2) written once as a
step over _padded, which reads the previous row as zero outside its range.
Rows are memoized for the process lifetime; the row tables only ever grow
and are safe to use from several threads.

Every row is read by _RowTable.row(), whose docstring gives the one
policy: which rows a table stores and which it rolls without storing.
Where the table would only roll row k, stirling2() computes its one
value by stirling2_single instead, a kernel apart from the row step.

Index conventions (they differ between families on purpose):

* stirling1 / stirling2: row k has entries 0..k, s(0,0) = S(0,0) = 1.
* eulerian1: 1-based, row p has entries j = 1..p with <p,1> = 1. This is
  shifted by one against the common 0-based convention.
* eulerian2: 0-based, row 0 is the single entry <<0,0>> = 1 and row l has
  entries j = 0..l-1 for l >= 1.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from collections import namedtuple
from collections.abc import Callable, Sequence

#: surjection_brute refuses instances whose exhaustive pass writes more than
#: this many map entries, m * n**m.
BRUTE_FORCE_LIMIT = 10**8


#: row() stores a row at or above this index only when it is the row right
#: after the last stored one. At 512 rows the five tables' rows and entries
#: take 188 MB (from the entries' bit lengths): Stirling 30 and 26 MB (first
#: and second kind), Eulerian 40 and 47 MB, recurrence 45 MB.
ROW_CAP = 512


class _RowTable:
    """Monotonically growing memo of triangle rows.

    Rows are tuples and only appended, never replaced, so readers that
    race the lock still see consistent data.
    """

    def __init__(self, seed: Sequence[int], step: Callable[[Sequence[int], int], list]):
        self._rows: list[tuple[int, ...]] = [tuple(seed)]
        self._step = step
        self._lock = threading.Lock()

    def stores(self, index: int) -> bool:
        """Whether row(index) returns a stored row: one the table holds,
        one below ROW_CAP, or the row right after the last stored one.

        The length is read without the lock. A thread that races a growing
        table can only see False where a row was just stored, or True
        where it would have seen False; it then rolls a row instead of
        reading the table or the other way round, and both give equal
        values.
        """
        return index <= len(self._rows) or index < ROW_CAP

    def row(self, index: int, width: int | None = None) -> tuple[int, ...]:
        """Row `index`, the one read path of every table.

        Where stores(index) holds, the row is stored first if the table
        does not hold it yet, and the whole stored row is returned. Any
        other row is rolled from the seed by the table's own step on one
        row of `width` entries (all of them when width is None) and stored
        nowhere: O(index * width) work in O(width) memory, the table left
        as it was. Entry j of a step reads only entries j and j - 1 of the
        previous row, so the first `width` entries of each step are exact.
        So a whole triangle read in row order stores every row, past
        ROW_CAP too: each is the next row.
        """
        if not self.stores(index):
            row = self._rows[0][:width]
            for i in range(1, index + 1):
                row = self._step(row, i)[:width]
            return tuple(row)
        if index >= len(self._rows):
            with self._lock:
                while len(self._rows) <= index:
                    prev = self._rows[-1]
                    self._rows.append(tuple(self._step(prev, len(self._rows))))
        return self._rows[index]

    def head(self, count: int) -> tuple[tuple[int, ...], ...]:
        """The first `count` rows as stored, in one slice; rows the table
        lacks are first read through row() in row order, so all are stored."""
        for index in range(len(self._rows), count):
            self.row(index)
        return tuple(self._rows[:count])


def _padded(prev: Sequence[int], length: int):
    """(j, prev[j], prev[j - 1]) for j < length, reading prev as zero
    outside its range. It stops after j = len(prev): both reads are zero
    past it, so a step would give zeros there."""
    return zip(range(length), itertools.chain(prev, (0,)), itertools.chain((0,), prev))


def _stirling1_step(prev: Sequence[int], k: int) -> list:
    # s(k,r) = s(k-1,r-1) + (k-1) s(k-1,r)
    return [below + (k - 1) * at for _, at, below in _padded(prev, k + 1)]


def _stirling2_step(prev: Sequence[int], k: int) -> list:
    # S(k,j) = j S(k-1,j) + S(k-1,j-1)
    return [j * at + below for j, at, below in _padded(prev, k + 1)]


def _eulerian1_step(prev: Sequence[int], index: int) -> list:
    # 1-based: <p,j> = j <p-1,j> + (p-j+1) <p-1,j-1>; row index i holds
    # p = i+1 with <p,j> at position t = j-1
    p = index + 1
    return [(t + 1) * at + (p - t) * below for t, at, below in _padded(prev, p)]


def _eulerian2_step(prev: Sequence[int], n: int) -> list:
    # <<n,k>> = (k+1) <<n-1,k>> + (2n-1-k) <<n-1,k-1>>
    return [(k + 1) * at + (2 * n - 1 - k) * below for k, at, below in _padded(prev, n)]


_STIRLING1 = _RowTable((1,), _stirling1_step)
_STIRLING2 = _RowTable((1,), _stirling2_step)
_EULERIAN1 = _RowTable((1,), _eulerian1_step)  # rows[i] is row p = i+1
_EULERIAN2 = _RowTable((1,), _eulerian2_step)

#: Triangle family -> (row table, first row); table row i holds row
#: first_row + i. The families understood by number_triangle().
_FAMILY_TABLES = {
    "stirling1": (_STIRLING1, 0),
    "stirling2": (_STIRLING2, 0),
    "eulerian1": (_EULERIAN1, 1),
    "eulerian2": (_EULERIAN2, 0),
}

FAMILIES = tuple(_FAMILY_TABLES)


def stirling2_single(k: int, j: int) -> int:
    """S(k, j) alone, in O(k) memory and O(j (k - j)) additions.

    S(k, j) is the complete homogeneous sum h_(k-j)(1, ..., j), the
    coefficient of z^k in z^j / ((1 - z)(1 - 2z)...(1 - jz)) (Graham,
    Knuth and Patashnik, Concrete Mathematics, eq. 7.47). Starting from
    the series 1, each in-place prefix pass h[t] += i * h[t - 1]
    multiplies by 1 / (1 - iz); after the passes i = 1..j, h[k - j] is
    the coefficient sought. Zero when j > k, like stirling2().
    """
    if k < 0:
        raise ValueError(f"negative row {k}")
    if j < 0 or j > k:
        return 0
    h = [1] + [0] * (k - j)
    for i in range(1, j + 1):
        for t in range(1, k - j + 1):
            h[t] += i * h[t - 1]
    return h[-1]


def stirling2(k: int, j: int) -> int:
    """Stirling number of the second kind S(k, j); zero when j > k.

    Read from the table where it stores row k, and otherwise computed
    alone by stirling2_single. That kernel is neither the row recurrence
    of c_recurrence nor the inclusion-exclusion of c_alternating, so the
    closed route stays independent of both at every k. stores() only
    turns from False to True, so row(k) after a True test returns a
    stored row.
    """
    if k < 0:
        raise ValueError(f"negative row {k}")
    if not 0 <= j <= k:
        return 0
    return _STIRLING2.row(k)[j] if _STIRLING2.stores(k) else stirling2_single(k, j)


def _surjection_row(m: int) -> list[int]:
    """j! * S(m, j) for j = 0..m, from one row of S and a running j!."""
    factorials = itertools.accumulate(range(1, m + 1), operator.mul, initial=1)
    return list(map(operator.mul, factorials, _STIRLING2.row(m)))


@functools.cache
def _or_table(a: int) -> bytes:
    """The translate table taking a byte x to x | a, built on first use.
    Racing threads may build it twice; the two are equal."""
    return bytes(x | a for x in range(256))


def _image_masks(k: int, n: int) -> bytes:
    """The image bitmask of every map from a k-set into {0..n-1}, one byte
    per map. Each coordinate takes n translate passes over the masks so
    far, one per value, each through _or_table(1 << value)."""
    masks = b"\0"
    for _ in range(k):
        masks = b"".join([masks.translate(_or_table(1 << v)) for v in range(n)])
    return masks


def surjection_brute(m: int, n: int) -> int:
    """Surjection count by testing every one of the n**m maps from {1..m}
    to {1..n}.

    Independent of the closed form n! * S(m, n): a map is onto when the
    bitmask of its image is full. The masks of all maps on the last
    q = min(m, 5) coordinates sit in one bytes object of n**q bytes. For
    each map on the other m - q coordinates, one bytes.translate ORs its
    mask into all of them and count() finds the full ones, so every map is
    built and tested in C-level passes. The OR tables those passes read
    are cached per byte (_or_table), at most 2**7 of them.

    Refuses instances whose exhaustive pass would write more than
    BRUTE_FORCE_LIMIT entries, m * n**m, before any work; n**m is never
    formed for large m. Every admitted instance with m >= n has n <= 7
    (8 * 8**8 is over the limit), so a mask fits in one byte.
    """
    if m < 1 or n < 1:
        raise ValueError(f"set sizes must be positive, got ({m}, {n})")
    # For n >= 2, n**m passes the limit as soon as 2**m does.
    huge = n > 1 and m >= BRUTE_FORCE_LIMIT.bit_length()
    if huge or m * min(n, BRUTE_FORCE_LIMIT + 1) ** m > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"refusing brute-force enumeration: {m} * {n}**{m} map entries exceed "
            f"the bound {BRUTE_FORCE_LIMIT}"
        )
    if m < n:
        return 0
    q = min(m, 5)
    suffixes = _image_masks(q, n)
    full = (1 << n) - 1
    return sum(suffixes.translate(_or_table(a)).count(full) for a in _image_masks(m - q, n))


class NumberTriangle(namedtuple("NumberTriangle", "rows first_row")):
    """Rows of the counting family the caller named, in its canonical shape.

    rows is a tuple of row tuples; first_row is the row index of rows[0]
    (1 for the 1-based first-kind Eulerian family, 0 otherwise).
    """

    __slots__ = ()


def number_triangle(family: str, max_row: int) -> NumberTriangle:
    """All rows of the named family up to max_row inclusive, without its name.

    The rows are the table's stored tuples, from one _RowTable.head() call;
    every one is stored, past ROW_CAP too. Raises ValueError when max_row
    lies before the family's first row (0, or 1 for eulerian1).
    """
    if max_row < 0:
        raise ValueError(f"max_row must be nonnegative, got {max_row}")
    if family not in _FAMILY_TABLES:
        raise ValueError(f"unknown triangle family {family!r}; expected one of {FAMILIES}")
    table, first_row = _FAMILY_TABLES[family]
    if max_row < first_row:
        raise ValueError(f"{family} rows start at {first_row}")
    return NumberTriangle(table.head(max_row + 1 - first_row), first_row)
