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

The k- and j-families recurse once per positive entry (k) or entry >= 2
(j) of a head, the leading entries of a tuple. The last few entries come
from suffix blocks: lists of every valid end for what a head leaves,
emitted in one map(tuple.__add__, block) pass per head. The same
recursion over a one-entry head builds each block from narrower ones, so
a family states its rule for the next entry once. One builder
(_suffixes) holds the memo lookup and the flattening for both families;
each passes it its own recursion, memo (_K_BLOCKS, _J_BLOCKS) and fill.
A block is a pure function of its key, so it is kept for the process
(see _suffixes). The memo is bounded by construction: a call builds
blocks of width at most _block_width(ell) <= 16 and content at most ell,
the width depends on ell alone, and no ell past 55 has blocks, so the
memo of a family never holds more than 9,692 tuples, and a call adds at
most 2,048 of them. Each family streams its own (head, block) pairs
(_k_pairs, _j_pairs), a head that is the whole tuple with _EMPTY_BLOCK,
so the k/j bijection stays a checked fact. The public generators flatten
every pair alike (head + () is head); the enumerative routes weigh them
head by head.

Compositions come from one generator frame, which steps the leading
parts like an odometer and takes the last parts from tail blocks built
per call. Their key holds min_part, which has no bound, so they are not
kept: the blocks of one call hold at most 2,048 tuples and go with its
generator. Every family refuses, with ValueError, any request whose
tuples would be longer than MAX_TUPLE_LENGTH (the k/j pairs when called,
before a route weighing them builds anything). A k/j stream recurses
as deep as its heads' support plus its block build, not its length: at
(901, 1), the longest, about 35 frames, and 4 once its blocks are kept.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from itertools import chain, count, takewhile

#: Longest tuple any generator here builds.
MAX_TUPLE_LENGTH = 900

#: Tuples the blocks of one request may hold at once: the tail blocks of
#: a composition stream, or the suffix blocks a k- or j-family adds to
#: its memo.
_TAIL_TUPLES = 2048

#: Most entries a block spans. Past a few entries a wider block saves
#: little per tuple, while every narrower width must be built first.
_TAIL_WIDTH = 16


def _check_length(length: int) -> None:
    if length > MAX_TUPLE_LENGTH:
        raise ValueError(
            f"tuples of length {length} exceed the limit of {MAX_TUPLE_LENGTH} entries"
        )


def _k_rec(buf: list, m: int, i: int, rem: int, pos: int, prev: bool) -> Iterator[tuple]:
    """(head, block) for each distinct head, the first len(buf) entries of
    the length-m k-tuples, ascending; block is the suffix block of what the
    head leaves, which _suffixes builds by this recursion into _K_BLOCKS.
    Entries 0..i-1 are in buf, zeros after them. One level per positive
    entry: a stream recurses as deep as its heads' support plus the blocks.

    rem is the content and pos the number of positives left for the m - i
    slots from i on, prev whether entry i - 1 is positive. Zeros to the end
    of buf come first, then the next positive at each q, the last first (a
    later positive sorts first), its value ascending. A state is entered
    only if feasible: pos positives, each at least 1 and no two side by
    side, fit in `slots` slots exactly when pos <= rem and 2 * pos <=
    slots + 1 (one fewer behind a positive: q <= m + 1 - 2 * pos); pos = 0
    needs rem = 0. So every head is emitted only if a tuple starts with it.
    """
    end = len(buf)
    width = m - end
    if (pos <= rem and 2 * pos <= width + 1) if pos else not rem:  # zeros to the end
        block = _suffixes(_k_rec, _K_BLOCKS, 0, width, rem, pos, False) if width else _EMPTY_BLOCK
        yield tuple(buf), block
    if 0 < pos <= rem:
        values = range(rem if pos == 1 else 1, rem - pos + 2)  # all if last; 1 per other
        for q in range(end - 1 if 2 * pos <= width + 1 else m + 1 - 2 * pos, i + prev - 1, -1):
            for v in values:
                buf[q] = v
                if q + 1 < end or not width:
                    yield from _k_rec(buf, m, q + 1, rem - v, pos - 1, True)
                else:  # the head ends in this positive, emitted from this level
                    block = _suffixes(_k_rec, _K_BLOCKS, 0, width, rem - v, pos - 1, True)
                    yield tuple(buf), block
            buf[q] = 0


#: The suffix blocks of each family, kept for the process under their
#: keys (see _suffixes).
_K_BLOCKS: dict = {}
_J_BLOCKS: dict = {}

#: The block of a head that is the whole tuple: its one suffix is empty.
#: Shared, so a reader can tell it by identity.
_EMPTY_BLOCK = ((),)


def _suffixes(rec, blocks: dict, fill: int, width: int, rem: int, count: int, prev: bool) -> list:
    """Every `width`-entry end, width >= 1, of a tuple of the family
    streamed by rec (_k_rec with fill 0, or _j_rec with fill 1), for the
    state (rem, count, prev) its head leaves, ascending: the flattened
    pairs of rec over a one-entry head. Kept in that family's memo, blocks,
    under (width, rem, count, prev), put there once complete and never
    replaced: a builder that loses a race returns the first published."""
    key = (width, rem, count, prev)
    block = blocks.get(key)
    if block is None:
        block = []
        for head, narrower in rec([fill], width, 0, rem, count, prev):
            block += map(head.__add__, narrower)
        block = blocks.setdefault(key, block)
    return block


def _j_rec(buf: list, m: int, i: int, rem: int, big: int, prev: bool) -> Iterator[tuple]:
    """The (head, block) pairs of the length-m j-tuples as _k_rec gives
    those of the k-tuples, one level per entry >= 2, with blocks that
    _suffixes builds by this recursion into _J_BLOCKS; buf holds ones.

    rem is what the m - i slots from i on sum to, big how many of them are
    >= 2, prev whether entry i - 1 is >= 2. Each slot takes at least 1 and
    the big entries share the excess rem - slots, kept along a run of ones:
    feasible exactly when big <= excess and 2 * big <= slots + 1 (one fewer
    behind a big entry); big = 0 needs no excess.
    """
    end = len(buf)
    width = m - end
    rest = rem - end + i  # what the entries from end on sum to behind ones
    excess = rest - width
    if (big <= excess and 2 * big <= width + 1) if big else not excess:  # ones to the end
        block = _suffixes(_j_rec, _J_BLOCKS, 1, width, rest, big, False) if width else _EMPTY_BLOCK
        yield tuple(buf), block
    if 0 < big <= excess:
        values = range(excess + 1 if big == 1 else 2, excess - big + 3)  # all if last; 2 per other
        for q in range(end - 1 if 2 * big <= width + 1 else m + 1 - 2 * big, i + prev - 1, -1):
            for v in values:
                buf[q] = v
                if q + 1 < end or not width:
                    yield from _j_rec(buf, m, q + 1, rem - (q - i) - v, big - 1, True)
                else:  # the head ends in this big entry
                    block = _suffixes(_j_rec, _J_BLOCKS, 1, width, rest + 1 - v, big - 1, True)
                    yield tuple(buf), block
            buf[q] = 1


def _suffix_count(width: int, content: int) -> int:
    """Number of k-suffixes of `width` entries and content at most
    `content`, over every support: q positives, none side by side, take
    one of C(width - q + 1, q) spacings and one of C(content, q) ways to
    share at most `content` among them. The j-suffixes of `width` entries
    and excess at most `content` are their entrywise +1 images, so there
    are as many."""
    return sum(
        math.comb(width - q + 1, q) * math.comb(content, q) for q in range(width + 1)
    )


@functools.cache
def _block_width(ell: int) -> int:
    """The widest width up to _TAIL_WIDTH at which every block of content
    (excess, for the j-family) at most ell, of that width and every
    narrower one, holds at most _TAIL_TUPLES tuples together. A block
    behind a positive (big) entry holds the suffixes that start with 0
    (1), as many as the suffixes one entry narrower. 0 below width 3,
    where the per-head lookup costs more than the blocks save.
    """
    width = held = 0
    narrower = 1  # _suffix_count(0, ell): the empty suffix
    while width < _TAIL_WIDTH:
        wider = _suffix_count(width + 1, ell)
        held += wider + narrower
        if held > _TAIL_TUPLES:
            break
        width, narrower = width + 1, wider
    return width if width > 2 else 0


def _check_pair(p: int, ell: int) -> None:
    # operator.index raises TypeError on a non-integer: a float such as 10.0
    # hashes equal to an int and would otherwise read a route's kept value.
    if operator.index(p) < 1:
        raise ValueError(f"p must be positive, got {p}")
    if not 0 <= operator.index(ell) <= p - 1:
        raise ValueError(f"ell must lie in 0..{p - 1}, got {ell}")


def _check_family(p: int, ell: int) -> None:
    # The longest tuples have support s = min(ell, p - ell): s positive
    # entries, no two side by side, fit in length p + s - ell - 1 only
    # while s <= p - ell. As s <= ell, no tuple is longer than p - 1, so
    # only a request that fails one of these tests calls the validators.
    if p < 1 or not 0 <= ell <= p - 1 or p - 1 > MAX_TUPLE_LENGTH:
        _check_pair(p, ell)
        _check_length(p - 1 - ell + min(ell, p - ell))


def _k_pairs(p: int, ell: int) -> Iterator[tuple]:
    """The k-tuples at (p, ell) in stream order, as (head, block) pairs
    from _k_rec: the tuples are head + t for each t in block, in that
    order. Per support s, the heads span all but the last
    min(_block_width(ell), m) of the m = p + s - ell - 1 entries. Only the
    supports that hold a tuple are visited, s up to min(ell, p - ell)
    (see _check_family, run at the call), so no block is empty."""
    _check_family(p, ell)
    return chain.from_iterable(
        _k_rec([0] * max(m - _block_width(ell), 0), m, 0, ell, s, False)
        for s in range(min(ell, 1), min(ell, p - ell) + 1)
        for m in (p + s - ell - 1,)
    )


def _j_pairs(p: int, ell: int) -> Iterator[tuple]:
    """The j-tuples at (p, ell) as _k_pairs gives the k-tuples, one
    support per number t of entries >= 2, from _j_rec, t up to
    min(ell, p - ell), validated at the call."""
    _check_family(p, ell)
    return chain.from_iterable(
        _j_rec([1] * max(m - _block_width(ell), 0), m, 0, ell + m, t, False)
        for t in range(min(ell, 1), min(ell, p - ell) + 1)
        for m in (p + t - ell - 1,)
    )


def enumerate_k_tuples(p: int, ell: int) -> Iterator[tuple[int, ...]]:
    """All tuples of nonnegative integers with content ell, support
    s = length + ell + 1 - p, and no two consecutive positive entries.

    Lengths are emitted ascending (equivalently, support ascending from 0
    for ell = 0 or from 1 otherwise); within a length the order is
    lexicographic. For ell = 0 this is the single all-zero tuple of
    length p - 1 (empty for p = 1).

    The stream is _k_pairs flattened, one map(head.__add__, block) pass
    per head. A valid ell = 0 request streams its one tuple from this
    frame; _k_pairs validates every other when the stream starts.
    """
    if not ell and 0 < p <= MAX_TUPLE_LENGTH + 1:
        yield (0,) * (p - 1)
        return
    for head, block in _k_pairs(p, ell):
        yield from map(head.__add__, block)


def enumerate_j_tuples(p: int, ell: int) -> Iterator[tuple[int, ...]]:
    """All tuples of positive integers of length m = p + t - ell - 1
    summing to ell + m, where t counts the entries >= 2 and every entry
    >= 2 except a last one is followed by a 1.

    Entrywise this family is the +1 image of enumerate_k_tuples(p, ell),
    emitted in the same order, and streamed the same way from its own
    pairs (_j_pairs) and suffix blocks.
    """
    if not ell and 0 < p <= MAX_TUPLE_LENGTH + 1:
        yield (1,) * (p - 1)
        return
    for head, block in _j_pairs(p, ell):
        yield from map(head.__add__, block)


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
