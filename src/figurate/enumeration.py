"""Lazy generators for constrained integer tuples and compositions.

Three families feed the coefficient sums:

* k-tuples: nonnegative entries, fixed content (the entry sum, sum(t))
  and support (number of positive entries), and no two consecutive
  positive entries.
* j-tuples: the entrywise +1 image of the k-tuples, i.e. positive entries
  where every entry >= 2 except a last one is followed by a 1; generated
  independently here so the bijection between the two families is a
  checkable fact rather than a construction.
* compositions: ordered tuples of a fixed length summing to a fixed total
  with a per-part lower bound.

All generators stream tuples in ascending lexicographic order (within
each tuple length for the k/j families, lengths ascending) and never
materialize the full family. The ordering is a reproducibility
convention, nothing more.

The k- and j-tuple generators recurse once per entry of the tuple under
construction; compositions come from one generator frame instead, which
steps the leading parts like an odometer and takes the last parts from
tail blocks built per call, at most 2,048 tuples held at once. Every
family refuses, with ValueError, any request whose tuples would be longer
than MAX_TUPLE_LENGTH; for the recursive families that keeps the deepest
tuple well inside the interpreter's default limit of 1000 frames.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import count, takewhile

#: Longest tuple any generator here builds.
MAX_TUPLE_LENGTH = 900


def _check_length(length: int) -> None:
    if length > MAX_TUPLE_LENGTH:
        raise ValueError(
            f"tuples of length {length} exceed the limit of {MAX_TUPLE_LENGTH} entries"
        )


def support(entries: tuple[int, ...]) -> int:
    """Number of positive entries."""
    return sum(1 for e in entries if e > 0)


def _max_spaced(slots: int, first_blocked: bool) -> int:
    """Most positions markable in `slots` slots, no two adjacent, first
    position unavailable when first_blocked."""
    if first_blocked:
        slots -= 1
    return max(0, (slots + 1) // 2)


def _k_tuples_fixed(m: int, total: int, positives: int) -> Iterator[tuple[int, ...]]:
    """Length-m tuples, nonnegative entries summing to total with exactly
    `positives` positive entries and no two consecutive positives, in
    ascending lexicographic order."""
    if m == 0:
        if total == 0 and positives == 0:
            yield ()
        return

    buf = [0] * m

    def feasible(slots: int, rem: int, pos: int, prev_positive: bool) -> bool:
        if pos == 0:
            return rem == 0
        return pos <= rem and pos <= _max_spaced(slots, prev_positive)

    def rec(i: int, rem: int, pos: int, prev_positive: bool) -> Iterator[tuple[int, ...]]:
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


def _j_tuples_fixed(m: int, total: int, bigs: int) -> Iterator[tuple[int, ...]]:
    """Length-m tuples of positive entries summing to total with exactly
    `bigs` entries >= 2, every entry >= 2 except a last one followed by
    a 1, ascending lexicographic order."""
    if m == 0:
        if total == 0 and bigs == 0:
            yield ()
        return

    buf = [0] * m

    def feasible(slots: int, rem: int, big: int, prev_big: bool) -> bool:
        excess = rem - slots  # each slot carries at least 1
        if excess < 0:
            return False
        if big == 0:
            return excess == 0
        return big <= excess and big <= _max_spaced(slots, prev_big)

    def rec(i: int, rem: int, big: int, prev_big: bool) -> Iterator[tuple[int, ...]]:
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


def _check_bounds(p: int, ell: int) -> None:
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if not 0 <= ell <= p - 1:
        raise ValueError(f"ell must lie in 0..{p - 1}, got {ell}")
    # The longest tuples have support s = min(ell, p - ell): s positive
    # entries, no two side by side, fit in length p + s - ell - 1 only
    # while s <= p - ell.
    _check_length(p - 1 - ell + min(ell, p - ell))


def enumerate_k_tuples(p: int, ell: int) -> Iterator[tuple[int, ...]]:
    """All tuples of nonnegative integers with content ell, support
    s = length + ell + 1 - p, and no two consecutive positive entries.

    Lengths are emitted ascending (equivalently, support ascending from 0
    for ell = 0 or from 1 otherwise); within a length the order is
    lexicographic. For ell = 0 this is the single all-zero tuple of
    length p - 1 (empty for p = 1).
    """
    _check_bounds(p, ell)
    supports = (0,) if ell == 0 else range(1, ell + 1)
    for s in supports:
        m = p + s - ell - 1
        yield from _k_tuples_fixed(m, ell, s)


def enumerate_j_tuples(p: int, ell: int) -> Iterator[tuple[int, ...]]:
    """All tuples of positive integers of length m = p + t - ell - 1
    summing to ell + m, where t counts the entries >= 2 and every entry
    >= 2 except a last one is followed by a 1.

    Entrywise this family is the +1 image of enumerate_k_tuples(p, ell),
    emitted in the same order.
    """
    _check_bounds(p, ell)
    bigs = (0,) if ell == 0 else range(1, ell + 1)
    for t in bigs:
        m = p + t - ell - 1
        yield from _j_tuples_fixed(m, ell + m, t)


#: Tuples the tail blocks of one composition request may hold at once.
_TAIL_TUPLES = 2048

#: Most parts a tail block spans. Past a few parts a wider block saves
#: little per tuple, while every narrower width must be built first.
_TAIL_WIDTH = 16


def _widest_tail(spare: int) -> int:
    """Widest tail, 2 up to _TAIL_WIDTH parts, whose blocks, C(spare + w, w)
    tuples, and the narrower blocks they are built from,
    C(spare + w - 1, w - 1), fit in _TAIL_TUPLES together."""
    width = 2
    while (
        width < _TAIL_WIDTH
        and math.comb(spare + width + 1, width + 1) + math.comb(spare + width, width)
        <= _TAIL_TUPLES
    ):
        width += 1
    return width


#: _widest_tail(spare) for every spare up to the last that allows a tail
#: wider than 2 parts.
_WIDEST_TAIL = tuple(takewhile((2).__lt__, map(_widest_tail, count())))


def _tail_blocks(spare: int, width: int, min_part: int) -> list[list[tuple[int, ...]]]:
    """blocks[r] lists the compositions of r + width * min_part into
    `width` parts of at least min_part, ascending, for r = 0..spare.

    Built bottom-up, one part wider per step and no recursion: block r of
    width w holds (min_part + v,) + t for v = 0..r and t in block r - v of
    width w - 1, in that order. Only two widths are alive at a time.
    """
    firsts = [(min_part + v,) for v in range(spare + 1)]
    blocks = [[first] for first in firsts]
    for _ in range(width - 1):
        narrower, blocks = blocks, []
        for r in range(spare + 1):
            block = []
            for v in range(r + 1):
                block += map(firsts[v].__add__, narrower[r - v])
            blocks.append(block)
    return blocks


def enumerate_compositions(total: int, parts: int, min_part: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of total into exactly `parts` parts, each at
    least min_part, lexicographically ascending.

    One generator frame, no recursion: an odometer steps the leading
    parts - w parts through their values in lexicographic order, and for
    each setting the last w parts come out of one C-level
    map(tuple.__add__, tails) pass.

    The tails are tail blocks: with spare = total - parts * min_part, one
    list per remainder r = 0..spare of every w-part tail that adds r to
    the minimum (_tail_blocks). w is the widest width up to 16 whose
    blocks, with the narrower ones they are built from, fit in 2,048
    tuples (_widest_tail), so a call holds at most that many tuples at
    once; its blocks go with the generator. w is also at most parts - 2,
    as behind one leading part each block would be emitted only once.
    Blocks are built only when that leaves w > 2 and spare >= 2 (with
    less to spare a stream has at most `parts` compositions). Otherwise
    the last two parts (v, rem - v) come lazily from zip(range, range),
    so a call holds O(parts) however large total is.

    Infeasible instances (total < parts * min_part) yield nothing, and
    allocate nothing however many parts they ask for.
    """
    if parts < 1:
        raise ValueError(f"parts must be positive, got {parts}")
    if min_part < 1:
        raise ValueError(f"min_part must be positive, got {min_part}")
    if total < parts * min_part:
        return
    _check_length(parts)
    if parts == 1:
        yield (total,)
        return

    spare = total - parts * min_part
    width = 2
    if parts > 4 and 2 <= spare < len(_WIDEST_TAIL):
        width = min(parts - 2, _WIDEST_TAIL[spare])
        blocks = _tail_blocks(spare, width, min_part)
    head = [min_part] * (parts - width)
    rem = spare  # what the last `width` parts share beyond min_part each
    while True:
        if width > 2:
            tails = blocks[rem]
        else:
            tails = zip(range(min_part, min_part + rem + 1), range(min_part + rem, min_part - 1, -1))
        yield from map(tuple(head).__add__, tails)
        # Lexicographic successor of head: the rightmost part that can take
        # one more while every later part drops back to min_part.
        i = len(head) - 1
        while i >= 0 and not rem:
            rem += head[i] - min_part
            head[i] = min_part
            i -= 1
        if i < 0:
            return
        head[i] += 1
        rem -= 1
