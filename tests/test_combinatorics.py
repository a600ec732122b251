"""Counting families against independent oracles and frozen values."""

import itertools
import math
import time
import tracemalloc

import pytest

from figurate import combinatorics
from figurate.coefficients import _recurrence_step, c_closed, decompose_groups
from figurate.combinatorics import (
    _EULERIAN2,
    FAMILIES,
    NumberTriangle,
    _RowTable,
    _stirling2_step,
    number_triangle,
    stirling2,
    surjection_brute,
)
from memo_table import race


def frozenset_surjections(m, n):
    """Surjection count as the frozenset test over itertools.product: the
    one-map-at-a-time brute force, kept as the reference for the byte-mask
    kernel."""
    if m < n:
        return 0
    full = frozenset(range(n))
    return sum(1 for f in itertools.product(range(n), repeat=m) if frozenset(f) == full)


def stirling_permutations(order):
    """All permutations of {1,1,...,order,order} in which the values between
    the two copies of m are all greater than m."""
    pool = tuple(itertools.chain.from_iterable((m, m) for m in range(1, order + 1)))
    seen = set()
    for perm in itertools.permutations(pool):
        if perm in seen:
            continue
        seen.add(perm)
        ok = True
        for m in range(1, order + 1):
            first = perm.index(m)
            last = len(perm) - 1 - perm[::-1].index(m)
            if any(perm[i] < m for i in range(first + 1, last)):
                ok = False
                break
        if ok:
            yield perm


def descents(perm):
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


class TestMultinomial:
    """Multinomials p! / prod(s_i!) summed over compositions of p."""

    def test_values(self):
        # The t = 4 group of decompose_groups(9, 4) sums over the four
        # orderings of (2, 2, 2, 3), each 9! / (2! 2! 2! 3!) = 7560.
        assert decompose_groups(9, 4)[-1] == (4, 1, 4 * 7560) == (4, 1, 30240)


def stirling1(k, r):
    """s(k, r) from the stirling1 triangle, zero outside 0 <= r <= k."""
    return number_triangle("stirling1", k).rows[k][r] if 0 <= r <= k else 0


def eulerian1_row(p):
    """Row p of the 1-based first-kind Eulerian triangle: <p, j> at j - 1."""
    t = number_triangle("eulerian1", p)
    return t.rows[p - t.first_row]


class TestStirlingFirst:
    def test_values(self):
        assert stirling1(5, 2) == 50
        assert stirling1(4, 2) == 11
        for k in range(12):
            assert stirling1(k, k) == 1

    def test_out_of_triangle(self):
        rows = number_triangle("stirling1", 4).rows
        assert len(rows[3]) == 4  # no entry s(3, r) past r = 3
        assert rows[4][0] == 0
        assert rows[0] == (1,)

    def test_rising_factorial_coefficients(self):
        # n(n+1)...(n+k-1) = sum_r s(k,r) n^r, checked pointwise
        for k in range(1, 10):
            row = number_triangle("stirling1", k).rows[k]
            for n in range(-5, 6):
                rising = math.prod(range(n, n + k))
                assert rising == sum(s * n**r for r, s in enumerate(row))


class TestStirlingSecond:
    def test_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(9, 4) == 7770
        for k in range(12):
            assert stirling2(k, k) == 1
        assert stirling2(3, 7) == 0

    def test_partition_oracle(self):
        # count partitions of {0..k-1} into j nonempty blocks by brute force
        for k in range(1, 7):
            counts = [0] * (k + 1)
            for assignment in itertools.product(range(k), repeat=k):
                blocks = frozenset(assignment)
                # normalized: block labels must appear in first-use order
                first_use = []
                ok = True
                for a in assignment:
                    if a not in first_use:
                        if a != len(first_use):
                            ok = False
                            break
                        first_use.append(a)
                if ok:
                    counts[len(blocks)] += 1
            for j in range(1, k + 1):
                assert stirling2(k, j) == counts[j]

    def test_falling_factorial_row_sum(self):
        for k in range(13):
            for x in range(11):
                assert x**k == sum(
                    stirling2(k, j) * math.factorial(j) * math.comb(x, j)
                    for j in range(k + 1)
                )


class TestEulerianFirst:
    def test_values(self):
        assert eulerian1_row(8)[1] == 247
        assert eulerian1_row(8)[3] == 15619
        for p in range(1, 13):
            assert eulerian1_row(p)[0] == 1

    def test_descent_oracle(self):
        # <p, j> counts permutations of 1..p with j-1 descents
        for p in range(1, 7):
            counts = [0] * p
            for perm in itertools.permutations(range(p)):
                counts[descents(perm)] += 1
            assert list(eulerian1_row(p)) == counts

    def test_row_symmetry_and_sum(self):
        for p in range(1, 13):
            row = eulerian1_row(p)
            assert len(row) == p
            assert sum(row) == math.factorial(p)
            assert row == row[::-1]

    def test_out_of_range_rejected(self):
        # The rows start at p = 1: there is no row 0.
        with pytest.raises(ValueError, match="eulerian1 rows start at 1"):
            number_triangle("eulerian1", 0)


class TestEulerianSecond:
    def test_base_cases(self):
        assert _EULERIAN2.row(0) == (1,)
        assert _EULERIAN2.row(1) == (1,)
        assert _EULERIAN2.row(2) == (1, 2)

    def test_stirling_permutation_oracle(self):
        for order in range(1, 5):
            counts = {}
            for perm in stirling_permutations(order):
                d = descents(perm)
                counts[d] = counts.get(d, 0) + 1
            assert _EULERIAN2.row(order) == tuple(counts.get(j, 0) for j in range(order))

    def test_row_sum_double_factorial(self):
        for order in range(1, 10):
            assert sum(_EULERIAN2.row(order)) == math.prod(range(1, 2 * order, 2))


class TestSurjections:
    def test_values(self):
        # n! S(m, n) is the closed route's c(m, m - n).
        assert surjection_brute(3, 2) == c_closed(3, 1) == 6
        assert surjection_brute(4, 3) == c_closed(4, 1) == 36
        for m in range(1, 9):
            assert surjection_brute(m, 1) == c_closed(m, m - 1) == 1

    def test_no_surjection_onto_larger_set(self):
        assert surjection_brute(2, 5) == 0

    def test_brute_matches_formula(self):
        for m in range(1, 6):
            for n in range(1, m + 1):
                assert surjection_brute(m, n) == c_closed(m, m - n)

    def test_bijections(self):
        for m in range(1, 6):
            assert surjection_brute(m, m) == math.factorial(m)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_brute_equals_one_map_at_a_time(self, m):
        for n in range(1, m + 2):
            assert surjection_brute(m, n) == frozenset_surjections(m, n), n

    def test_brute_on_eight_points(self):
        for n in range(1, 8):
            assert surjection_brute(8, n) == c_closed(8, 8 - n), n

    def test_brute_peaks_under_1mb(self):
        tracemalloc.start()
        try:
            assert surjection_brute(7, 7) == math.factorial(7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_brute_size_guard(self):
        with pytest.raises(ValueError, match="bound"):
            surjection_brute(50, 50)

    def test_brute_from_four_threads_on_empty_or_tables(self):
        # Each thread runs its quarter of the (m, n) with m, n <= 6, then all
        # of them in reverse, from an empty OR-table cache, so the threads
        # race to fill it.
        pairs = [(m, n) for m in range(1, 7) for n in range(1, 7)]
        expected = {pair: surjection_brute(*pair) for pair in pairs}

        def worker(t):
            return [(pair, surjection_brute(*pair)) for pair in pairs[t::4] + pairs[::-1]]

        [seen] = race(worker, reset=combinatorics._or_table.cache_clear)
        for t, results in enumerate(seen):
            assert len(results) == len(pairs[t::4]) + len(pairs), t
            for pair, value in results:
                assert value == expected[pair], (t, pair)

    def test_or_cache_holds_at_most_128_tables(self):
        # Every admitted instance with m >= n has n <= 7: one table per
        # byte a < 2**7 at most.
        combinatorics._or_table.cache_clear()
        for m in range(1, 8):
            for n in range(1, 8):
                assert surjection_brute(m, n) == (c_closed(m, m - n) if n <= m else 0)
        assert 0 < combinatorics._or_table.cache_info().currsize <= 128

    @pytest.mark.parametrize(
        "m, n",
        [(10**6, 10**6), (3 * 10**6, 3 * 10**6), (10**9, 1), (8, 8), (23, 2), (10**8 + 1, 1)],
    )
    def test_over_entries_bound_refused_quickly(self, m, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="bound"):
            surjection_brute(m, n)
        assert time.perf_counter() - start < 0.5

    def test_entries_bound_admits_its_edge(self):
        # 22 * 2**22 entries, about 9.2e7; (23, 2) is refused above.
        assert surjection_brute(22, 2) == 2**22 - 2

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            surjection_brute(0, 1)
        with pytest.raises(ValueError):
            surjection_brute(3, 0)


class TestOrthogonality:
    def test_both_relations(self):
        for k in range(13):
            for j in range(13):
                delta = (-1) ** k if k == j else 0
                assert delta == sum(
                    (-1) ** r * stirling1(k, r) * stirling2(r, j)
                    for r in range(k + 1)
                )
                assert delta == sum(
                    (-1) ** r * stirling2(k, r) * stirling1(r, j)
                    for r in range(k + 1)
                )


class TestNumberTriangle:
    def test_shapes(self):
        t1 = number_triangle("stirling1", 6)
        t2 = number_triangle("stirling2", 6)
        assert len(t1.rows) == len(t2.rows) == 7
        assert all(len(t1.rows[k]) == k + 1 for k in range(7))

    def test_eulerian_first_is_one_based(self):
        t = number_triangle("eulerian1", 5)
        assert t.first_row == 1
        assert t.rows[1 - t.first_row] == (1,)
        assert t.rows[4 - t.first_row] == (1, 11, 11, 1)

    def test_eulerian_second_rows(self):
        t = number_triangle("eulerian2", 4)
        assert t.rows == ((1,), (1,), (1, 2), (1, 8, 6), (1, 22, 58, 24))

    def test_rows_match_scalar_accessors(self):
        t = number_triangle("stirling2", 9)
        for k in range(10):
            assert t.rows[k] == tuple(stirling2(k, j) for j in range(k + 1))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            number_triangle("bernoulli", 4)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_negative_max_row_rejected(self, family):
        with pytest.raises(ValueError):
            number_triangle(family, -3)

    @pytest.mark.parametrize("family", ["stirling1", "stirling2", "eulerian2"])
    def test_row_zero_is_valid(self, family):
        assert number_triangle(family, 0).rows == ((1,),)

    def test_families_constant(self):
        assert set(FAMILIES) == {"stirling1", "stirling2", "eulerian1", "eulerian2"}
        assert isinstance(number_triangle("stirling1", 2), NumberTriangle)

    @staticmethod
    def empty_tables(monkeypatch):
        """Point number_triangle at empty tables of the same families."""
        empty = {
            family: (_RowTable(table._rows[0], table._step), first_row)
            for family, (table, first_row) in combinatorics._FAMILY_TABLES.items()
        }
        monkeypatch.setattr(combinatorics, "_FAMILY_TABLES", empty)
        return empty

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_are_the_stored_tuples(self, family, monkeypatch):
        table, first_row = self.empty_tables(monkeypatch)[family]
        for max_row in (7, 30, 12):
            rows = number_triangle(family, max_row).rows
            assert len(rows) == max_row + 1 - first_row
            assert all(row is stored for row, stored in zip(rows, table._rows))
        assert len(table._rows) == 31 - first_row

    def test_racing_triangles_match_single_thread(self, monkeypatch):
        """Four threads read every family, in orders of their own, from
        empty tables; each gets the single-threaded rows, and they are
        the rows the tables store."""
        expected = {family: number_triangle(family, 60).rows for family in FAMILIES}
        requests = [(family, m) for m in (17, 60, 3, 41) for family in FAMILIES]

        def work(t):
            order = requests[t:] + requests[:t]
            return [(family, m, number_triangle(family, m).rows) for family, m in order]

        for _ in range(3):
            tables = self.empty_tables(monkeypatch)
            [seen] = race(work)
            for triangles in seen:
                assert len(triangles) == len(requests)
                for family, m, rows in triangles:
                    table, first_row = tables[family]
                    assert rows == expected[family][: m + 1 - first_row], (family, m)
                    assert all(row is stored for row, stored in zip(rows, table._rows))
            for family, (table, first_row) in tables.items():
                assert len(table._rows) == 61 - first_row


class TestRowTableThreads:
    """Row tables grow monotonically behind a lock, so concurrent readers
    get the same rows as a single-threaded build."""

    ROWS = 150
    THREADS = 8

    @pytest.mark.parametrize(
        "step", [_stirling2_step, _recurrence_step], ids=["stirling2", "recurrence"]
    )
    def test_interleaved_requests_match_single_thread(self, step):
        reference = _RowTable((1,), step)
        expected = [reference.row(i) for i in range(self.ROWS)]
        table = _RowTable((1,), step)

        def worker(t):
            # Thread t walks rows t, t + THREADS, ... up and back down, so
            # every thread races the others to grow the table.
            order = list(range(t, self.ROWS, self.THREADS))
            return [(i, table.row(i)) for i in order + order[::-1]]

        [seen] = race(worker, threads=self.THREADS)
        for t, pairs in enumerate(seen):
            assert len(pairs) == 2 * len(range(t, self.ROWS, self.THREADS))
            for i, row in pairs:
                assert row == expected[i], (t, i)
        assert len(table._rows) == self.ROWS
        assert [table.row(i) for i in range(self.ROWS)] == expected
