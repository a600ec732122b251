"""Lazy generators for constrained integer tuples and compositions.

Three families feed the coefficient sums:

* k-tuples: nonnegative entries, fixed content (the entry sum, sum(t))
  and support (number of positive entries), and no two consecutive
  positive entries.
* j-tuples: the entrywise +1 image of the k-tuples, i.e. positive entries
  where every entry >= 2 is followed by a 1; generated independently here
  so the bijection between the two families is a checkable fact rather
  than a construction.
* compositions: ordered tuples of a fixed length summing to a fixed total
  with a per-part lower bound.

All generators stream tuples in ascending lexicographic order (within
each tuple length for the k/j families, lengths ascending) and never
materialize the full family. The ordering is a reproducibility
convention, nothing more.

The k- and j-tuple generators recurse once per entry of the tuple under
construction; compositions come from one generator frame instead. Every
family refuses, with ValueError, any request whose tuples would be longer
than MAX_TUPLE_LENGTH; for the recursive families that keeps the deepest
tuple well inside the interpreter's default limit of 1000 frames.
"""

from __future__ import annotations

from collections.abc import Iterator

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
    `bigs` entries >= 2, every entry >= 2 followed by a 1, ascending
    lexicographic order."""
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
    >= 2 is followed by a 1.

    Entrywise this family is the +1 image of enumerate_k_tuples(p, ell),
    emitted in the same order.
    """
    _check_bounds(p, ell)
    bigs = (0,) if ell == 0 else range(1, ell + 1)
    for t in bigs:
        m = p + t - ell - 1
        yield from _j_tuples_fixed(m, ell + m, t)


def enumerate_compositions(total: int, parts: int, min_part: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of total into exactly `parts` parts, each at
    least min_part, lexicographically ascending.

    One generator frame, no recursion: an odometer steps the first
    parts - 2 parts through their values in lexicographic order, and for
    each setting the last two parts (v, rem - v) come out of one
    map(tuple.__add__, zip(range, range)) pass, lazily.

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

    head = [min_part] * (parts - 2)
    rem = total - (parts - 2) * min_part  # what the last two parts share
    while True:
        yield from map(
            tuple(head).__add__,
            zip(range(min_part, rem - min_part + 1), range(rem - min_part, min_part - 1, -1)),
        )
        # Lexicographic successor of head: the rightmost part that can take
        # one more while every later part drops back to min_part.
        i = len(head) - 1
        while i >= 0 and rem <= 2 * min_part:
            rem += head[i] - min_part
            head[i] = min_part
            i -= 1
        if i < 0:
            return
        head[i] += 1
        rem -= 1
