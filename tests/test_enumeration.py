"""Tuple and composition generators: exact contents, order, and counts."""

import gc
import hashlib
import itertools
import math
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from figurate import enumeration
from figurate.coefficients import c_closed, c_enum_j, c_enum_k
from figurate.enumeration import (
    MAX_TUPLE_LENGTH,
    enumerate_compositions,
    enumerate_j_tuples,
    enumerate_k_tuples,
)
from memo_table import block_bound, recursive_j_tuples, recursive_k_tuples


def brute_compositions(total, parts, min_part):
    """Compositions by unpruned product enumeration.

    Each of the other parts - 1 parts takes at least min_part, so no part
    can exceed total - (parts - 1) * min_part; scanning the cube bounded
    there is exhaustive.
    """
    largest = total - (parts - 1) * min_part
    return [
        c
        for c in itertools.product(range(min_part, largest + 1), repeat=parts)
        if sum(c) == total
    ]


def recursive_compositions(total, parts, min_part):
    """Compositions by one recursion level per part, lexicographically
    ascending: the reference for the odometer generator."""
    if total < parts * min_part:
        return
    buf = [0] * parts

    def rec(i, rem):
        if i == parts - 1:
            if rem >= min_part:
                buf[i] = rem
                yield tuple(buf)
            return
        for v in range(min_part, rem - (parts - i - 1) * min_part + 1):
            buf[i] = v
            yield from rec(i + 1, rem - v)

    yield from rec(0, total)


def brute_k_tuples(p, ell):
    """The admissible nonnegative tuples by filtering the full cube.

    Lengths beyond p cannot satisfy the support equation (support would
    exceed the content), so scanning m <= p is exhaustive.
    """
    out = []
    for m in range(0, p + 1):
        for t in itertools.product(range(ell + 1), repeat=m):
            if sum(t) != ell:
                continue
            s = sum(1 for e in t if e > 0)
            if s != m + ell + 1 - p:
                continue
            if any(t[i] > 0 and t[i + 1] > 0 for i in range(m - 1)):
                continue
            out.append(t)
    return out


class TestKTuples:
    def test_reference_lists_for_p5(self):
        expected = {
            0: {(0, 0, 0, 0)},
            1: {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)},
            2: {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1)},
            3: {(3, 0), (0, 3), (1, 0, 2), (2, 0, 1)},
            4: {(4,)},
        }
        for ell, tuples in expected.items():
            assert set(enumerate_k_tuples(5, ell)) == tuples

    def test_zero_content_is_all_zeros(self):
        for p in range(2, 8):
            assert list(enumerate_k_tuples(p, 0)) == [(0,) * (p - 1)]
        assert list(enumerate_k_tuples(1, 0)) == [()]

    def test_matches_brute_filter(self):
        for p in range(1, 7):
            for ell in range(p):
                assert sorted(enumerate_k_tuples(p, ell)) == sorted(brute_k_tuples(p, ell))

    def test_order_is_length_then_lex(self):
        for p in range(1, 9):
            for ell in range(p):
                got = list(enumerate_k_tuples(p, ell))
                assert got == sorted(got, key=lambda t: (len(t), t))
                assert len(set(got)) == len(got)

    def test_invariants(self):
        for p in range(1, 10):
            for ell in range(p):
                for t in enumerate_k_tuples(p, ell):
                    assert all(e >= 0 for e in t)
                    assert sum(t) == ell
                    assert t.count(0) == p - ell - 1
                    assert not any(
                        t[i] > 0 and t[i + 1] > 0 for i in range(len(t) - 1)
                    )

    def test_count_is_binomial(self):
        for p in range(1, 11):
            for ell in range(p):
                count = sum(1 for _ in enumerate_k_tuples(p, ell))
                assert count == math.comb(p - 1, p - ell - 1)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_k_tuples(0, 0))
        with pytest.raises(ValueError):
            list(enumerate_k_tuples(5, 5))
        with pytest.raises(ValueError):
            list(enumerate_k_tuples(5, -1))


class TestJTuples:
    def test_two_part_family(self):
        for p in range(4, 9):
            expected = {(p - 1, 1), (1, p - 1)} | {
                (a, 1, p - a) for a in range(2, p - 1)
            }
            assert set(enumerate_j_tuples(p, p - 2)) == expected

    def test_zero_content_is_all_ones(self):
        assert list(enumerate_j_tuples(5, 0)) == [(1, 1, 1, 1)]

    def test_bijection_with_k_tuples(self):
        for p in range(1, 10):
            for ell in range(p):
                shifted = sorted(
                    tuple(e + 1 for e in t) for t in enumerate_k_tuples(p, ell)
                )
                assert shifted == sorted(enumerate_j_tuples(p, ell))

    def test_invariants(self):
        for p in range(1, 10):
            for ell in range(p):
                for t in enumerate_j_tuples(p, ell):
                    bigs = sum(1 for e in t if e >= 2)
                    assert all(e >= 1 for e in t)
                    assert sum(t) == ell + len(t)
                    assert len(t) == p + bigs - ell - 1
                    assert not any(
                        t[i] >= 2 and t[i + 1] != 1 for i in range(len(t) - 1)
                    )

    def test_last_entry_may_be_big(self):
        # Every entry >= 2 except a last one is followed by a 1: these are
        # the +1 images of the k-tuples that end in a positive entry.
        emitted = list(enumerate_j_tuples(5, 2))
        for t in [(1, 1, 3), (1, 2, 1, 2), (2, 1, 1, 2)]:
            assert t in emitted

    def test_grouped_count_for_9_4(self):
        # 56 tuples for (p, ell) = (9, 5), grouped by the number of parts >= 2
        by_bigs = {}
        for t in enumerate_j_tuples(9, 5):
            bigs = sum(1 for e in t if e >= 2)
            by_bigs[bigs] = by_bigs.get(bigs, 0) + 1
        assert by_bigs == {1: 4, 2: 24, 3: 24, 4: 4}
        assert sum(by_bigs.values()) == 56


class TestCompositions:
    def test_small_cases(self):
        assert list(enumerate_compositions(4, 2, 1)) == [(1, 3), (2, 2), (3, 1)]
        assert list(enumerate_compositions(7, 2, 2)) == [(2, 5), (3, 4), (4, 3), (5, 2)]
        assert list(enumerate_compositions(9, 1, 1)) == [(9,)]

    def test_infeasible_is_empty(self):
        assert list(enumerate_compositions(3, 2, 2)) == []
        assert list(enumerate_compositions(0, 1, 1)) == []
        # A buffer of 2**61 parts could never be allocated.
        assert list(enumerate_compositions(1, 2**61, 1)) == []

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_compositions(4, 0, 1))
        with pytest.raises(ValueError):
            list(enumerate_compositions(4, 2, 0))

    @given(st.integers(1, 14), st.integers(1, 6), st.integers(1, 3))
    def test_matches_brute_enumeration(self, total, parts, min_part):
        got = list(enumerate_compositions(total, parts, min_part))
        assert got == brute_compositions(total, parts, min_part)

    def test_count_is_stars_and_bars(self):
        for total in range(1, 21):
            for parts in range(1, 8):
                count = sum(1 for _ in enumerate_compositions(total, parts, 1))
                assert count == math.comb(total - 1, parts - 1)

    @pytest.mark.parametrize("min_part", [1, 2, 3])
    def test_equals_recursive_reference(self, min_part):
        for total in range(25):
            for parts in range(1, 11):
                got = list(enumerate_compositions(total, parts, min_part))
                assert got == list(recursive_compositions(total, parts, min_part)), (
                    total,
                    parts,
                )

    def test_lexicographic_without_duplicates(self):
        got = list(enumerate_compositions(9, 3, 2))
        assert got == sorted(set(got))


class TestRecordedCompositions:
    """Every composition stream on a grid that crosses tail widths 2 to 10
    equals the stream of the two-part-tail odometer: sha256 of the repr of
    (total, parts, list of compositions) per instance, recorded from that
    generator for every feasible instance with total <= 40, parts <= 12
    and at most 20,000 compositions."""

    DIGESTS = {
        1: "2bcd4aafc1affeed9b5231272e0bcf8849f255a28d1b6c3c8fcc0ee0c2f7383a",
        2: "5a87281af62d3ac107ea7f04725013fa73ef32454967c90bc0cdf9a9cf74482d",
        3: "52718c1c45e6e09d55049d9a2d59301bf708afb309941595c32dc874406b9610",
    }

    @pytest.mark.parametrize("min_part", [1, 2, 3])
    def test_grid_matches_recorded_digest(self, min_part):
        digest = hashlib.sha256()
        for total in range(41):
            for parts in range(1, 13):
                spare = total - parts * min_part
                if spare >= 0 and math.comb(spare + parts - 1, parts - 1) <= 20_000:
                    stream = list(enumerate_compositions(total, parts, min_part))
                    digest.update(repr((total, parts, stream)).encode())
        assert digest.hexdigest() == self.DIGESTS[min_part]


class TestTailBlocks:
    """The last parts of each composition come from per-call blocks that
    hold a bounded number of tuples and go with the generator."""

    def test_width_is_widest_within_bound(self):
        def held(spare, width):
            return math.comb(spare + width, width) + math.comb(spare + width - 1, width - 1)

        for spare in range(60):
            w = enumeration._widest_tail(spare)
            assert 2 <= w <= enumeration._TAIL_WIDTH
            if w > 2:
                assert held(spare, w) <= enumeration._TAIL_TUPLES, spare
            if w < enumeration._TAIL_WIDTH:
                assert held(spare, w + 1) > enumeration._TAIL_TUPLES, spare
        widest = enumeration._WIDEST_TAIL
        assert widest == tuple(map(enumeration._widest_tail, range(len(widest))))
        assert enumeration._widest_tail(len(widest)) == 2

    @pytest.mark.parametrize("spare, width", [(0, 16), (3, 9), (12, 4), (26, 3)])
    def test_blocks_list_every_tail(self, spare, width):
        blocks = enumeration._tail_blocks(spare, width, 2)
        assert sum(map(len, blocks)) == math.comb(spare + width, width)
        for r, block in enumerate(blocks):
            assert block == list(recursive_compositions(r + 2 * width, width, 2))

    def test_wide_tails_match_recursive_reference(self):
        # Little to spare makes the widest tails, up to the width cap.
        for parts in range(12, 23):
            for spare in range(4):
                for min_part in (1, 2):
                    total = parts * min_part + spare
                    got = list(enumerate_compositions(total, parts, min_part))
                    assert got == list(recursive_compositions(total, parts, min_part))

    def test_blocks_freed_with_generator(self):
        # With the collector off, a reference cycle would keep every call's
        # blocks: about 2 MB per batch of the 160 streams below. The
        # first batch fills the interpreter's tuple free lists, which stay
        # traced; a second batch must add next to nothing to them.
        def streams():
            for total in range(1, 21):
                for parts in range(1, 9):
                    count = sum(1 for _ in enumerate_compositions(total, parts, 1))
                    assert count == math.comb(total - 1, parts - 1)

        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            streams()
            first, _ = tracemalloc.get_traced_memory()
            streams()
            second, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert second - first < 100_000

    def test_many_parts_build_no_recursion(self):
        # 900 parts with 0, 1 and 2 to spare: lazy tails, then 16-part
        # tail blocks behind 884 leading parts. No frame per part anywhere.
        code = (
            "import itertools, sys; sys.setrecursionlimit(100)\n"
            "from figurate.enumeration import enumerate_compositions\n"
            "assert list(enumerate_compositions(1800, 900, 2)) == [(2,) * 900]\n"
            "assert len(list(enumerate_compositions(1801, 900, 2))) == 900\n"
            "first = list(itertools.islice(enumerate_compositions(1802, 900, 2), 3))\n"
            "assert first == [(2,) * 898 + (2, 4), (2,) * 898 + (3, 3), (2,) * 898 + (4, 2)]\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestRecordedTuples:
    """The k- and j-streams equal those of the recursive generators that
    one frame per entry built (recursive_k_tuples, recursive_j_tuples):
    sha256 of the repr of (p, ell, list of tuples) over every (p, ell)
    with p <= 18, recorded from those generators. The stdout of
    `tuples --p 18 --ell 9`, recorded from them too, is in the golden
    corpus (test_golden.py)."""

    DIGESTS = {
        "k": "8633f0f463e54e1d092610c83eb922ee8801244ba29bb0ba2cf44879ce5bb0f9",
        "j": "ae45bbb92fed85ba2a169b413280d3532293e9ca91a078beba6d344e78501e63",
    }
    FAMILIES = {"k": enumerate_k_tuples, "j": enumerate_j_tuples}
    ORACLES = {"k": recursive_k_tuples, "j": recursive_j_tuples}

    @pytest.mark.parametrize("kind", ["k", "j"])
    def test_streams_match_recorded_digest(self, kind):
        digest = hashlib.sha256()
        for p in range(1, 19):
            for ell in range(p):
                digest.update(repr((p, ell, list(self.FAMILIES[kind](p, ell)))).encode())
        assert digest.hexdigest() == self.DIGESTS[kind]

    @pytest.mark.parametrize("kind", ["k", "j"])
    def test_equal_to_recursive_oracle(self, kind):
        for p in range(1, 15):
            for ell in range(p):
                got = list(self.FAMILIES[kind](p, ell))
                assert got == list(self.ORACLES[kind](p, ell)), (p, ell)


def _memo(kind):
    """The process-wide suffix memo of the k- or j-family."""
    return enumeration._K_BLOCKS if kind == "k" else enumeration._J_BLOCKS


def _held(kind):
    """Tuples the k- or j-suffix memo holds."""
    return sum(map(len, _memo(kind).values()))


def brute_suffixes(kind, width, rem, count, prev):
    """Every end of `width` entries of a k-tuple (content rem, `count`
    positives) or a j-tuple (sum rem, `count` entries >= 2), behind a
    positive or big entry when prev, by filtering the full cube."""
    low, big = (0, 1) if kind == "k" else (1, 2)
    top = rem - (width - 1) * low  # the other entries take at least low each
    out = []
    for t in itertools.product(range(low, top + 1), repeat=width):
        marks = [e >= big for e in t]
        if sum(t) != rem or sum(marks) != count or (prev and marks and marks[0]):
            continue
        if kind == "k" and any(marks[i] and marks[i + 1] for i in range(width - 1)):
            continue
        if kind == "j" and any(marks[i] and t[i + 1] != 1 for i in range(width - 1)):
            continue
        out.append(t)
    return out


#: Per family: the recursion, memo and fill its suffix blocks are built with.
SUFFIX_FAMILIES = {
    "k": (enumeration._k_rec, enumeration._K_BLOCKS, 0),
    "j": (enumeration._j_rec, enumeration._J_BLOCKS, 1),
}


class TestSuffixBlocks:
    """The last entries of each k- and j-tuple come from suffix blocks,
    kept for the process, that hold a bounded number of tuples and are
    built for every family."""

    @pytest.mark.parametrize("kind", ["k", "j"])
    def test_pairs_hold_no_empty_block(self, kind):
        pairs = enumeration._k_pairs if kind == "k" else enumeration._j_pairs
        for p in range(1, 19):
            for ell in range(p):
                assert all(block for _, block in pairs(p, ell)), (p, ell)

    def test_streams_keep_no_empty_block(self):
        for p in range(1, 17):
            for ell in range(p):
                for family in (enumerate_k_tuples, enumerate_j_tuples):
                    for _ in family(p, ell):
                        pass
        for kind in ("k", "j"):
            assert _memo(kind)
            assert all(_memo(kind).values()), kind

    @pytest.mark.parametrize("kind", ["k", "j"])
    def test_blocks_list_every_suffix(self, kind):
        family = SUFFIX_FAMILIES[kind]
        for width in range(1, 6):
            for content in range(7):
                rem = content if kind == "k" else content + width
                for count in range(4):
                    for prev in (False, True):
                        block = enumeration._suffixes(*family, width, rem, count, prev)
                        assert block == brute_suffixes(kind, width, rem, count, prev), (
                            width, rem, count, prev,
                        )

    def test_suffix_count_matches_brute(self):
        for width in range(6):
            for content in range(6):
                brute = sum(
                    sum(t) <= content and not any(map(min, zip(t, t[1:])))
                    for t in itertools.product(range(content + 1), repeat=width)
                )
                assert enumeration._suffix_count(width, content) == brute, (width, content)

    def test_width_is_widest_within_bound(self):
        def held(width, ell):
            return sum(
                enumeration._suffix_count(u, ell) + enumeration._suffix_count(u - 1, ell)
                for u in range(1, width + 1)
            )

        budget = enumeration._TAIL_TUPLES  # whatever the family's size
        for ell in range(60):
            w = enumeration._block_width(ell)
            if w:
                assert 3 <= w <= enumeration._TAIL_WIDTH, ell
                assert held(w, ell) <= budget, ell
                if w < enumeration._TAIL_WIDTH:
                    assert held(w + 1, ell) > budget, ell
            else:
                assert held(3, ell) > budget, ell

    @pytest.mark.parametrize("kind", ["k", "j"])
    def test_call_adds_at_most_2048_tuples(self, kind):
        family = enumerate_k_tuples if kind == "k" else enumerate_j_tuples
        seen = 0
        for p in range(10, 17):
            for ell in range(1, p):
                if enumeration._block_width(ell):
                    _memo(kind).clear()
                    for _ in family(p, ell):
                        pass
                    held = _held(kind)
                    assert 0 < held <= enumeration._TAIL_TUPLES, (p, ell)
                    seen = max(seen, held)
        assert seen > 1000  # the bound is reached for, not trivially met
        # A family far too large to stream: its blocks fill as heads need them.
        _memo(kind).clear()
        for _ in itertools.islice(family(40, 20), 200_000):
            pass
        assert 0 < _held(kind) <= enumeration._TAIL_TUPLES

    @pytest.mark.parametrize("kind", ["k", "j"])
    def test_memo_stays_within_derived_bound(self, kind):
        # The first 300 tuples of every blocked family up to p = 60, one
        # family after the other into one memo, which never passes the
        # bound that any calls could reach (9,692 tuples).
        family = enumerate_k_tuples if kind == "k" else enumerate_j_tuples
        bound = block_bound()
        for p in range(1, 61):
            for ell in range(1, p):
                if enumeration._block_width(ell):
                    for _ in itertools.islice(family(p, ell), 300):
                        pass
                    assert _held(kind) <= bound, (p, ell)
        assert _held(kind) > bound // 2  # the bound is reached for, not trivially met

    @pytest.mark.parametrize("width", range(17))
    def test_every_width_matches_recursive_oracle(self, width, monkeypatch):
        # Widths past a tuple's length make its whole support one block,
        # behind an empty head. The routes weigh the same (head, block)
        # pairs: _EMPTY_BLOCK at width 0, and widths no family gets by
        # default.
        monkeypatch.setattr(enumeration, "_block_width", lambda ell: width)
        for p in range(1, 12):
            for ell in range(p):
                assert list(enumerate_k_tuples(p, ell)) == list(recursive_k_tuples(p, ell))
                assert list(enumerate_j_tuples(p, ell)) == list(recursive_j_tuples(p, ell))
                closed = c_closed(p, ell)
                assert c_enum_k(p, ell) == c_enum_j(p, ell) == closed, (p, ell)

    @pytest.mark.parametrize("kind", ["k", "j"])
    def test_second_call_builds_no_block(self, kind):
        # Blocks are kept for the process: a second stream of the same
        # family reads every block the first one built, and adds none.
        family = enumerate_k_tuples if kind == "k" else enumerate_j_tuples
        for _ in family(16, 8):
            pass
        built = dict(_memo(kind))
        assert built
        for _ in family(16, 8):
            pass
        assert _memo(kind).keys() == built.keys()
        assert all(_memo(kind)[key] is block for key, block in built.items())

    def test_blocks_freed_with_generator(self):
        # The first batch fills the memo; a generator keeps nothing else.
        # With the collector off, a reference cycle would keep every
        # call's frames and heads, so a second batch must add next to
        # nothing to the first.
        def streams():
            for p in range(10, 14):
                for ell in range(1, p):
                    assert sum(1 for _ in enumerate_k_tuples(p, ell)) == math.comb(p - 1, ell)
                    assert sum(1 for _ in enumerate_j_tuples(p, ell)) == math.comb(p - 1, ell)

        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            streams()
            first, _ = tracemalloc.get_traced_memory()
            streams()
            second, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert second - first < 100_000

    @pytest.mark.parametrize("p", range(1, 10))
    def test_small_families_no_slower_than_recursion(self, p):
        # Small families stream from suffix blocks too, here mostly one
        # block behind an empty head per support; their recursion and blocks
        # (list-equal to the oracle: TestRecordedTuples) must be no slower
        # than the one-frame-per-entry oracle. Both families summed over
        # ell, best of 9 alternating samples of about 2,000 tuples each.
        reps = 2000 >> p

        def timed(families):
            start = time.perf_counter()
            for _ in range(reps):
                for family in families:
                    for ell in range(p):
                        for _ in family(p, ell):
                            pass
            return time.perf_counter() - start

        new = old = math.inf
        for _ in range(9):
            new = min(new, timed((enumerate_k_tuples, enumerate_j_tuples)))
            old = min(old, timed((recursive_k_tuples, recursive_j_tuples)))
        assert new <= old, (new, old)


class TestLazyStreaming:
    """The first tuples of a family too large to hold come out in the
    documented order without the family being materialized."""

    @pytest.mark.parametrize(
        "stream, key",
        [
            # C(39, 19), about 6.9e10 tuples each; lengths ascend, then
            # lexicographic order within a length.
            (lambda: enumerate_k_tuples(40, 20), lambda t: (len(t), t)),
            (lambda: enumerate_j_tuples(40, 20), lambda t: (len(t), t)),
            (lambda: enumerate_compositions(60, 30, 1), lambda t: t),
            # About 5e17 compositions; the last two parts alone take 1e9 values.
            (lambda: enumerate_compositions(10**9, 3, 1), lambda t: t),
            # Too much to spare for tail blocks: the lazy two-part tails.
            (lambda: enumerate_compositions(500, 3, 1), lambda t: t),
            (lambda: enumerate_compositions(120, 4, 1), lambda t: t),
            # Three-part tail blocks behind five leading parts.
            (lambda: enumerate_compositions(20, 8, 1), lambda t: t),
        ],
        ids=["k", "j", "comp", "comp-wide", "comp-500-3", "comp-120-4", "comp-20-8"],
    )
    def test_first_thousand_in_order_under_1mb(self, stream, key):
        tracemalloc.start()
        try:
            prev, count = None, 0
            for t in itertools.islice(stream(), 1000):
                assert prev is None or key(prev) < key(t), (prev, t)
                prev, count = t, count + 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1000
        assert peak < 1_000_000


class TestTupleLengthLimit:
    """Tuples longer than MAX_TUPLE_LENGTH are refused up front, before the
    recursion could reach the interpreter's limit."""

    @pytest.mark.parametrize(
        "family",
        [
            lambda n: enumerate_compositions(2 * n, n, 2),
            lambda n: enumerate_k_tuples(n + 1, 1),
            lambda n: enumerate_j_tuples(n + 1, 1),
        ],
        ids=["comp", "k", "j"],
    )
    def test_boundary_and_first_refused_length(self, family):
        n = MAX_TUPLE_LENGTH
        assert len(next(family(n))) == n
        with pytest.raises(ValueError, match=f"length {n + 1} exceed the limit of {n}"):
            next(family(n + 1))

    def test_limit_applies_to_the_longest_tuple_built(self):
        n = MAX_TUPLE_LENGTH
        # ell = p - 1 has the single tuple (p - 1,), whatever p is.
        assert list(enumerate_k_tuples(n + 2, n + 1)) == [(n + 1,)]
        assert list(enumerate_j_tuples(n + 2, n + 1)) == [(n + 2,)]
        # ell = p / 2 has tuples of length p - 1.
        with pytest.raises(ValueError):
            next(enumerate_k_tuples(n + 2, (n + 2) // 2))
        # An infeasible instance builds no tuple at all.
        assert list(enumerate_compositions(5, n + 1, 1)) == []

    def test_longest_families_stream_with_frames_to_spare(self):
        """The first stream of the longest k- and j-tuples, which builds
        their suffix blocks, uses about 35 of the default 1000 frames, so
        both stream from a fresh thread 50 frames deep."""
        assert sys.getrecursionlimit() == 1000
        n = MAX_TUPLE_LENGTH
        counts = {}

        def nested(depth, family):
            if depth:
                return nested(depth - 1, family)
            return sum(1 for _ in family(n + 1, 1))

        def run():
            for family in (enumerate_k_tuples, enumerate_j_tuples):
                counts[family.__name__] = nested(50, family)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert counts == {"enumerate_k_tuples": n, "enumerate_j_tuples": n}

    def test_longest_families_stream_near_the_recursion_limit(self):
        """Heads recurse once per positive (k) or big (j) entry, not once
        per entry, so the first stream of the longest k- and j-tuples, from
        empty memos, runs from a thread nested within 100 frames of the
        interpreter's limit."""
        n = MAX_TUPLE_LENGTH
        counts = {}

        def nested(depth, family):
            if depth:
                return nested(depth - 1, family)
            return sum(1 for _ in family(n + 1, 1))

        def run():
            for family in (enumerate_k_tuples, enumerate_j_tuples):
                try:
                    counts[family.__name__] = nested(sys.getrecursionlimit() - 100, family)
                except RecursionError:
                    counts[family.__name__] = "RecursionError"

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert counts == {"enumerate_k_tuples": n, "enumerate_j_tuples": n}
