"""Single-value kernels of the table routes, the policy that picks
between them and the row tables, and the term-stepped sums of the
alternating and eulerian2 routes."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import figurate
from figurate import cli, coefficients, combinatorics, powersum
from figurate.coefficients import (
    _RECURRENCE,
    _recurrence_step,
    build_triangle,
    c_alternating,
    c_closed,
    c_eulerian2,
    c_recurrence,
    certify,
)
from figurate.combinatorics import (
    _EULERIAN1,
    _EULERIAN2,
    _STIRLING1,
    _STIRLING2,
    ROW_CAP,
    _RowTable,
    _eulerian2_step,
    _stirling2_step,
    number_triangle,
    stirling2,
    stirling2_single,
)
from figurate.fermat import build_fermat
from figurate.powersum import TERM_TAGS, representation, sum_brute
from memo_table import race

TABLES = {"stirling2": _STIRLING2, "recurrence": _RECURRENCE, "eulerian2": _EULERIAN2}
ALL_TABLES = {"stirling1": _STIRLING1, "eulerian1": _EULERIAN1, **TABLES}
TABLE_ROUTES = (c_closed, c_recurrence, c_eulerian2)
LARGE_P = (ROW_CAP, ROW_CAP + 1, 700)


def _stirling1_3(k):
    """s(k, 3) = (k - 1)!/2 * (H^2 - H2), with H and H2 the sums of 1/i
    and 1/i^2 over i < k."""
    h = sum(Fraction(1, i) for i in range(1, k))
    h2 = sum(Fraction(1, i * i) for i in range(1, k))
    return int(math.factorial(k - 1) * (h * h - h2) / 2)


#: Single value -> (row k past ROW_CAP, its read at (k, 3) as an
#: expression in k, c = figurate.combinatorics and figurate.coefficients,
#: its closed form).
ACCESSORS = {
    "stirling2": (2000, "c.stirling2(k, 3)", lambda k: (3**k - 3 * 2**k + 3) // 6),
    "c_closed": (2000, "coefficients.c_closed(k, k - 3)", lambda k: 3**k - 3 * 2**k + 3),
    "eulerian1": (
        1500,
        "c._EULERIAN1.row(k - 1, 3)[2]",
        lambda k: 3**k - (k + 1) * 2**k + math.comb(k + 1, 2),
    ),
    "stirling1": (1500, "c._STIRLING1.row(k, 4)[3]", _stirling1_3),
}


def _fractions(p):
    return sorted({int(p * f / 10) for f in range(1, 10)})


def _row_counts(tables=TABLES):
    return {name: len(table._rows) for name, table in tables.items()}


def _store_rows(table, index):
    """Store rows 0..index of a table, reading them in order so that each
    is below ROW_CAP or the next row."""
    for i in range(index + 1):
        table.row(i)


def _roll_every_row(monkeypatch):
    """From here on no table stores or reads back a row: every row is
    rolled, and stirling2() runs stirling2_single. The eulerian2 route's
    kept values are dropped, so its next call at a point reads a row."""
    monkeypatch.setattr(_RowTable, "stores", lambda self, index: False)
    coefficients._EULERIAN2_VALUES.clear()


@pytest.fixture
def kernels_only(monkeypatch):
    """Every row is rolled, so the routes run their kernels."""
    _roll_every_row(monkeypatch)


@pytest.fixture
def no_kernels(monkeypatch):
    """Any kernel call or rolled row fails the test."""

    def refuse(*args):
        raise AssertionError(f"kernel called with {args}")

    stores = _RowTable.stores

    def stores_or_refuse(self, index):
        if not stores(self, index):
            refuse(index)
        return True

    monkeypatch.setattr(combinatorics, "stirling2_single", refuse)
    monkeypatch.setattr(_RowTable, "stores", stores_or_refuse)


class TestKernelsMatchTables:
    @pytest.mark.parametrize("p", range(0, 81, 10))
    def test_stirling2_single(self, p):
        for k in range(max(p - 9, 0), p + 1):
            assert [stirling2_single(k, j) for j in range(k + 3)] == [
                stirling2(k, j) for j in range(k + 3)
            ]

    def test_stirling2_single_out_of_triangle(self):
        assert stirling2_single(5, -1) == 0
        assert stirling2_single(0, 0) == 1
        assert stirling2_single(7, 0) == 0
        with pytest.raises(ValueError):
            stirling2_single(-1, 0)

    @pytest.mark.parametrize("name", ALL_TABLES)
    def test_rolled_prefixes_match_rows(self, name, monkeypatch):
        table = ALL_TABLES[name]
        rows = [table.row(i) for i in range(81)]
        stored = len(table._rows)
        _roll_every_row(monkeypatch)
        for i, row in enumerate(rows):
            for width in range(len(row) + 2):
                assert table.row(i, width) == row[:width], (i, width)
        assert len(table._rows) == stored

    @pytest.mark.parametrize("p", range(1, 81, 10))
    def test_recurrence_single(self, p, monkeypatch):
        rows = [_RECURRENCE.row(q - 1) for q in range(p, p + 10)]
        _roll_every_row(monkeypatch)
        for q, row in zip(range(p, p + 10), rows):
            values = tuple(_RECURRENCE.row(q - 1, ell + 1)[ell] for ell in range(q))
            assert values == row

    def test_eulerian2_row(self, monkeypatch):
        rows = [_EULERIAN2.row(ell) for ell in range(81)]
        _roll_every_row(monkeypatch)
        for ell, row in enumerate(rows):
            assert _EULERIAN2.row(ell) == row

    def test_routes_on_kernels_match_tables(self, monkeypatch):
        expected = {
            route: [route(p, ell) for p in range(1, 81) for ell in range(p)]
            for route in TABLE_ROUTES
        }
        _roll_every_row(monkeypatch)
        for route in TABLE_ROUTES:
            got = [route(p, ell) for p in range(1, 81) for ell in range(p)]
            assert got == expected[route], route.__name__


class TestKernelsAboveCap:
    @pytest.mark.parametrize("p", LARGE_P)
    def test_routes_equal_alternating(self, p, kernels_only):
        for ell in _fractions(p):
            expected = c_alternating(p, ell)
            for route in TABLE_ROUTES:
                assert route(p, ell) == expected, (route.__name__, p, ell)


def powers(p):
    """x^p for x = 0..p by plain pow, shared by alternating_sum at every ell."""
    return [x**p for x in range(p + 1)]


def alternating_sum(p, ell, power=None):
    """The alternating route as one sum with math.comb for every term,
    term r taking (j - r)^p from power (powers(p) when not given)."""
    j = p - ell
    power = powers(p) if power is None else power
    return sum((-1) ** r * math.comb(j, r) * power[j - r] for r in range(j))


def eulerian2_sum(p, ell, row):
    """The eulerian2 route as one sum with math.comb for every term, over
    row ell of the second-kind Eulerian numbers."""
    total = sum(e * math.comb(p + ell - 1 - i, 2 * ell) for i, e in enumerate(row))
    return math.factorial(p - ell) * total


class TestSteppedSums:
    """c_alternating and c_eulerian2 step each binomial from its neighbour.
    They equal the sums that call math.comb for every term, and the
    triangles those sums built (sha256 of the repr, recorded from them)."""

    TRIANGLE_60_DIGEST = "5130f3fed18fb55914a074bd00c830f9d33e7c09898e5f0760ba2dc875e3e7dc"
    LARGE_P = (400, 511, 512, 513, 900, 1200)

    @staticmethod
    def large_ells(p):
        return [*range(0, p - 1, 7), p - 1]

    @pytest.mark.parametrize("route", ["alternating", "eulerian2"])
    def test_recorded_triangle(self, route):
        digest = hashlib.sha256(repr(build_triangle(60, route)).encode()).hexdigest()
        assert digest == self.TRIANGLE_60_DIGEST

    def test_every_ell_up_to_130(self):
        for p in range(1, 131):
            power = powers(p)
            for ell in range(p):
                assert c_alternating(p, ell) == alternating_sum(p, ell, power), (p, ell)
                row = _EULERIAN2.row(ell)
                assert c_eulerian2(p, ell) == eulerian2_sum(p, ell, row), (p, ell)

    @pytest.mark.parametrize("p", LARGE_P)
    def test_alternating_large(self, p):
        power = powers(p)
        for ell in self.large_ells(p):
            assert c_alternating(p, ell) == alternating_sum(p, ell, power), (p, ell)

    def test_eulerian2_large(self, monkeypatch):
        """Rows ell of <<., .>> are rolled once in ascending order and
        handed to the route, so no row past the cap is rolled twice."""

        def current_row(index, width=None):
            assert index == ell
            return row

        row = _EULERIAN2.row(0)
        monkeypatch.setattr(_EULERIAN2, "row", current_row)
        ells = {p: set(self.large_ells(p)) for p in self.LARGE_P}
        for ell in range(max(self.LARGE_P)):
            if ell:
                row = tuple(_eulerian2_step(row, ell))
            for p in (p for p in self.LARGE_P if ell in ells[p]):
                assert c_eulerian2(p, ell) == eulerian2_sum(p, ell, row), (p, ell)


class TestRowPolicy:
    def test_cold_request_above_cap_leaves_tables(self):
        for route, table, offset in (
            (c_closed, _STIRLING2, 0),
            (c_recurrence, _RECURRENCE, 1),
            (c_eulerian2, _EULERIAN2, 1),
        ):
            # Two rows past both the cap and the last stored row, so it is
            # neither stored, below the cap, nor the next row.
            index = max(ROW_CAP, len(table._rows)) + 2
            p = index + offset
            ell = index if route is c_eulerian2 else p // 2
            before = _row_counts()
            assert route(p, ell) == c_alternating(p, ell)
            assert _row_counts() == before, route.__name__

    def test_lookup_policy(self):
        """row() stores a row below ROW_CAP or the next row, and rolls any
        other; stores() says which before the read."""
        table = _RowTable((1,), _stirling2_step)
        assert table.stores(ROW_CAP - 1)
        last = table.row(ROW_CAP - 1)
        assert len(table._rows) == ROW_CAP and table._rows[-1] is last
        following = tuple(_stirling2_step(last, ROW_CAP))
        beyond = tuple(_stirling2_step(following, ROW_CAP + 1))
        assert not table.stores(ROW_CAP + 1)
        assert table.row(ROW_CAP + 1, 5) == beyond[:5]
        assert len(table._rows) == ROW_CAP
        assert table.stores(ROW_CAP)  # the next row
        assert table.row(ROW_CAP, 5) == following  # stored, so whole
        assert len(table._rows) == ROW_CAP + 1
        assert table.stores(ROW_CAP + 1)
        assert table.row(3, 1) is table._rows[3]

    def test_number_triangle_past_cap_stores_rows(self, monkeypatch):
        # From an empty table: every row is stored, as the stored tuple.
        table = _RowTable((1,), _stirling2_step)
        monkeypatch.setitem(combinatorics._FAMILY_TABLES, "stirling2", (table, 0))
        triangle = number_triangle("stirling2", ROW_CAP + 3)
        assert len(table._rows) == ROW_CAP + 4
        assert all(row is stored for row, stored in zip(triangle.rows, table._rows))
        last = triangle.rows[ROW_CAP + 3]
        for j in _fractions(ROW_CAP + 3):
            assert last[j] == stirling2_single(ROW_CAP + 3, j)

    def test_build_fermat_past_cap_stores_rows(self):
        p = ROW_CAP + 3
        matrix = build_fermat(p)
        assert len(_STIRLING1._rows) >= p + 1
        # Row k of A_p gives F_1^k = 1 at n = 1, and a(k, 1) = (k - 1)!/k!.
        assert sum(matrix.row(p)) == 1
        assert matrix.entry(p, 1) == Fraction(1, p)

    def test_build_triangle_past_cap_stores_rows(self):
        pmax = ROW_CAP + 3
        closed = build_triangle(pmax, "closed")
        assert len(_STIRLING2._rows) >= pmax + 1
        recurrence = build_triangle(pmax, "recurrence")
        assert len(_RECURRENCE._rows) >= pmax
        assert closed == recurrence
        for ell in _fractions(pmax):
            assert closed[-1][ell] == c_alternating(pmax, ell)

    def test_stored_rows_are_read(self, no_kernels):
        p = ROW_CAP + 3
        _store_rows(_STIRLING2, p)
        _store_rows(_RECURRENCE, p - 1)
        _store_rows(_EULERIAN2, 40)
        for ell in (0, 1, p // 2, p - 1):
            assert c_closed(p, ell) == c_recurrence(p, ell)
        assert c_eulerian2(p, 40) == c_closed(p, 40)

    def test_next_row_grows_table(self, no_kernels):
        for route, table, offset in ((c_closed, _STIRLING2, 0), (c_recurrence, _RECURRENCE, 1)):
            _store_rows(table, ROW_CAP)
            stored = len(table._rows)
            p = stored + offset
            assert route(p, 1) == c_alternating(p, 1)
            assert len(table._rows) == stored + 1

    def test_accessors_above_cap_leave_tables(self):
        before = _row_counts(ALL_TABLES)
        for name, (k, read, value) in ACCESSORS.items():
            namespace = {"c": combinatorics, "coefficients": coefficients, "k": k}
            assert eval(read, namespace) == value(k), name
        assert _row_counts(ALL_TABLES) == before

    def test_representation_above_cap_reads_one_row(self, monkeypatch):
        """Every term list past the cap rolls its one row: no table grows,
        and no per-value accessor, c_closed or stirling2_single runs."""

        def refuse(*args):
            raise AssertionError(f"per-value call with {args}")

        names = ("c_closed", "stirling2_single", "stirling2")
        for module in (coefficients, combinatorics, powersum):
            for name in names:
                monkeypatch.setattr(module, name, refuse, raising=False)
        # Rows p - 1..p + 1 are read; none may be the next row to store.
        p = max(900, *(len(t._rows) + 2 for t in ALL_TABLES.values()))
        before = {name: len(t._rows) for name, t in ALL_TABLES.items()}
        for tag in TERM_TAGS:
            assert len(representation.__wrapped__(tag, p)) in (p, p + 1)
        assert {name: len(t._rows) for name, t in ALL_TABLES.items()} == before

    def test_racing_lookups_give_table_values(self, monkeypatch):
        """8 threads mix table reads, growth and rolled rows (row()) on a
        fresh table with a small cap; every value equals a single-threaded
        build."""
        monkeypatch.setattr(combinatorics, "ROW_CAP", 20)
        rows, threads_n = 90, 8
        reference = _RowTable((1,), _recurrence_step)
        expected = [reference.row(i)[i // 2] for i in range(rows)]
        table = _RowTable((1,), _recurrence_step)

        def worker(t):
            order = list(range(t, rows, 3)) + list(range(rows - 1 - t, -1, -5))
            return [(i, table.row(i, i // 2 + 1)[i // 2]) for i in order]

        [seen] = race(worker, threads=threads_n)
        assert all(seen)
        for pairs in seen:
            for i, value in pairs:
                assert value == expected[i], i
        for i, row in enumerate(table._rows):
            assert row == reference.row(i)


class TestRouteIndependence:
    """The alternating route reads no row table, and the eulerian2 route
    reads only the second-kind Eulerian one; neither runs the closed
    route's kernel. A fault planted in a route's own memo or in a shared
    kernel fails the routes that read it and no other."""

    PAIRS = [(p, ell) for p in (*range(1, 25), 60, ROW_CAP + 2) for ell in _fractions(p)]

    @pytest.fixture
    def refuse_tables(self, monkeypatch):
        """Every row table access but those of the tables in the returned
        set fails the test."""
        allowed = set()

        def guard(name):
            method = getattr(_RowTable, name)

            def guarded(self, *args):
                if self not in allowed:
                    raise AssertionError(f"{name}{args} on a row table")
                return method(self, *args)

            monkeypatch.setattr(_RowTable, name, guarded)

        for name in ("row", "stores"):
            guard(name)

        def refuse(*args):
            raise AssertionError(f"stirling2_single{args}")

        monkeypatch.setattr(combinatorics, "stirling2_single", refuse)
        return allowed

    def test_alternating_reads_no_table(self, refuse_tables):
        for p, ell in self.PAIRS:
            assert c_alternating(p, ell) == alternating_sum(p, ell), (p, ell)

    # j at, or one either side of, 2^a, 3^b or 2^a 3^b: where the last base
    # of c_alternating's row of powers ends or just misses a chain of
    # halvings and thirds down to a base that takes a pow.
    SMOOTH_JS = {
        400: (64, 81, 96, 216, 243, 256, 288, 384),
        1200: (512, 648, 729, 864, 972, 1024, 1152),
    }

    @pytest.mark.parametrize("p", sorted(SMOOTH_JS))
    def test_alternating_around_smooth_j(self, p, refuse_tables):
        power = powers(p)
        for j in (s + d for s in self.SMOOTH_JS[p] for d in (-1, 0, 1)):
            assert c_alternating(p, p - j) == alternating_sum(p, p - j, power), (p, j)

    def test_eulerian2_reads_its_own_table(self, refuse_tables):
        expected = [alternating_sum(p, ell) for p, ell in self.PAIRS]
        refuse_tables.add(_EULERIAN2)
        assert [c_eulerian2(p, ell) for p, ell in self.PAIRS] == expected

    @staticmethod
    def plant_power(monkeypatch, base):
        """base^7 stored one too large in the alternating route's own memo;
        c_alternating(7, ell) reads it, as x^7 or as its mirror (j - x)^7,
        wherever j = 7 - ell >= base."""
        row = [x**7 for x in range(8)]
        row[base] += 1
        monkeypatch.setitem(coefficients._POWERS, 7, row)

    @pytest.fixture
    def wrong_odd_power(self, monkeypatch):
        self.plant_power(monkeypatch, 5)

    @pytest.fixture
    def wrong_even_power(self, monkeypatch):
        self.plant_power(monkeypatch, 4)

    @staticmethod
    def assert_only_alternating_fails(base):
        for ell in range(7):
            report = certify(7, ell)
            expected = alternating_sum(7, ell)
            wrong = {route for route, value in report.values.items() if value != expected}
            assert wrong == ({"alternating"} if 7 - ell >= base else set()), ell
            assert report.agree == (7 - ell < base)

    @staticmethod
    def assert_one_verify_line(capsys):
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "8"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("[fail]")] == [
            "[fail] coeff: routes agree p=7 (7 routes, ell=0..6; differs from closed: "
            "alternating at ell=0)"
        ]

    def test_wrong_odd_power_fails_only_alternating(self, wrong_odd_power):
        self.assert_only_alternating_fails(5)

    def test_wrong_odd_power_fails_one_verify_line(self, wrong_odd_power, capsys):
        self.assert_one_verify_line(capsys)

    def test_wrong_even_power_fails_only_alternating(self, wrong_even_power):
        self.assert_only_alternating_fails(4)

    def test_wrong_even_power_fails_one_verify_line(self, wrong_even_power, capsys):
        self.assert_one_verify_line(capsys)

    # (j, x): a_x stored one too large in the kept half a_0..a_(j // 2),
    # paired with its mirror a_(j - x) or, at x = j / 2, the middle term.
    @pytest.mark.parametrize("j, x", [(5, 0), (5, 2), (6, 1), (6, 3)])
    def test_wrong_signed_binomial_fails_only_alternating(self, monkeypatch, j, x):
        row = [(-1) ** (j - i) * math.comb(j, i) for i in range(j // 2 + 1)]
        row[x] += 1
        monkeypatch.setitem(coefficients._SIGNED, j, row)
        for p in range(1, 11):
            for ell in range(p):
                report = certify(p, ell)
                expected = alternating_sum(p, ell)
                wrong = {route for route, value in report.values.items() if value != expected}
                assert wrong == ({"alternating"} if p - ell == j else set()), (p, ell)

    @pytest.fixture
    def wrong_binomial(self, monkeypatch):
        """C(7, 4) one too large wherever c_eulerian2 computes it, and only
        inside that route's calls. c_eulerian2(p, 2) reads C(4 + t, 4) at
        t = p - 3 and p - 4 (row 2 has two terms), so it reads C(7, 4) at
        p = 6 and 7 only. At p = 6 it is the first binomial, from
        math.comb(7, 4), and the checked step down from it fails, so the
        route raises. At p = 7 it is the step down from C(8, 4),
        _exact_div(70 * 4, 4 + 4), and the last term, so the route returns
        a wrong value."""
        route, comb, exact_div = coefficients.c_eulerian2, math.comb, coefficients._exact_div

        def wrong_comb(n, k):
            return comb(n, k) + ((n, k) == (7, 4))

        def wrong_div(num, den):
            return exact_div(num, den) + ((num, den) == (70 * 4, 8))

        def wrong_route(p, ell):
            with monkeypatch.context() as inside:
                inside.setattr(math, "comb", wrong_comb)
                inside.setattr(coefficients, "_exact_div", wrong_div)
                return route(p, ell)

        monkeypatch.setattr(coefficients, "c_eulerian2", wrong_route)

    def test_wrong_binomial_fails_only_eulerian2(self, wrong_binomial):
        for p in range(1, 9):
            for ell in range(p):
                report = certify(p, ell)
                expected = alternating_sum(p, ell)
                wrong = {route for route, value in report.values.items() if value != expected}
                reads = ell == 2 and p in (6, 7)
                assert wrong == ({"eulerian2"} if reads else set()), (p, ell)
                assert report.agree == (not reads)
                raised = isinstance(report.values["eulerian2"], RuntimeError)
                assert raised == (reads and p == 6), (p, ell)

    def test_wrong_binomial_fails_two_verify_lines(self, wrong_binomial, capsys):
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "8"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("[fail]")] == [
            f"[fail] coeff: routes agree p={p} (7 routes, ell=0..{p - 1}; differs from closed: "
            f"eulerian2{how} at ell=2)"
            for p, how in ((6, " raised"), (7, ""))
        ]

    #: (route, its value memo, the planted point (p, ell)). The decompose
    #: point has ell = 0, which verify's composition identity, reading the
    #: decompose values at ell >= 1, does not read.
    VALUE_PLANTS = [
        ("alternating", "_ALTERNATING_VALUES", (6, 2)),
        ("eulerian2", "_EULERIAN2_VALUES", (8, 5)),
        ("enum_k", "_ENUM_K_VALUES", (7, 3)),
        ("enum_j", "_ENUM_J_VALUES", (5, 1)),
        ("decompose", "_DECOMPOSE_VALUES", (7, 0)),
    ]

    @pytest.mark.parametrize("route, memo, point", VALUE_PLANTS)
    def test_wrong_kept_value_fails_only_its_route(self, monkeypatch, capsys, route, memo, point):
        """c(p, ell) kept one too large in a route's own value memo: certify
        names that route at that point alone, and verify fails that row."""
        p, ell = point
        monkeypatch.setitem(getattr(coefficients, memo), point, alternating_sum(p, ell) + 1)
        for q in range(1, 9):
            for m in range(q):
                report = certify(q, m)
                expected = alternating_sum(q, m)
                wrong = {name for name, value in report.values.items() if value != expected}
                assert wrong == ({route} if (q, m) == point else set()), (q, m)
                assert report.agree == ((q, m) != point)
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "8"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("[fail]")] == [
            f"[fail] coeff: routes agree p={p} (7 routes, ell=0..{p - 1}; differs from closed: "
            f"{route} at ell={ell})"
        ]

    @pytest.fixture
    def wrong_padded(self, monkeypatch):
        """Entry 1 of row p = 4 read one too large by the recurrence
        route's step to row p = 5, through coefficients' binding of
        _padded only, so the row tables of combinatorics step as before.
        The route reads a new table, so the rows stepped with the fault
        go with it."""
        real = coefficients._padded

        def planted(prev, length):
            for j, at, below in real(prev, length):
                yield j, at, below + ((length, j) == (5, 2))

        monkeypatch.setattr(coefficients, "_padded", planted)
        monkeypatch.setattr(coefficients, "_RECURRENCE", _RowTable((1,), _recurrence_step))

    def test_wrong_padded_fails_only_recurrence(self, wrong_padded):
        for p in range(1, 9):
            for ell in range(p):
                report = certify(p, ell)
                expected = alternating_sum(p, ell)
                wrong = {route for route, value in report.values.items() if value != expected}
                reads = 2 <= ell <= p - 3  # c(5, 2) and the cells stepped from it
                assert wrong == ({"recurrence"} if reads else set()), (p, ell)
                assert report.agree == (not reads)

    def test_wrong_padded_fails_four_verify_lines(self, wrong_padded, capsys):
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "8"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("[fail]")] == [
            f"[fail] coeff: routes agree p={p} (7 routes, ell=0..{p - 1}; differs from closed: "
            "recurrence at ell=2)"
            for p in range(5, 9)
        ]

    #: The routes that divide through _exact_div: closed and recurrence do not.
    DIVIDING = {"enum_k", "enum_j", "decompose", "eulerian2", "alternating"}

    @pytest.fixture
    def wrong_exact_div(self, monkeypatch):
        """Every checked division by more than 1 one too large."""
        real = coefficients._exact_div

        def planted(num, den):
            q = real(num, den)
            return q + 1 if den > 1 else q

        monkeypatch.setattr(coefficients, "_exact_div", planted)

    def test_wrong_exact_div_fails_only_the_dividing_routes(self, wrong_exact_div):
        seen = set()
        for p in range(1, 15):
            for ell in range(p):
                report = certify(p, ell)
                expected = alternating_sum(p, ell)
                wrong = {route for route, value in report.values.items() if value != expected}
                assert wrong <= self.DIVIDING and report.value == expected, (p, ell)
                assert report.agree == (not wrong)
                seen |= wrong
        assert seen == self.DIVIDING

    def test_wrong_exact_div_fails_fourteen_verify_lines(self, wrong_exact_div, capsys):
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "8"]) == 1
        out = capsys.readouterr().out.splitlines()
        # eulerian2 rows 0 and 1 have one term, which takes no step; its
        # first checked division is C(5, 4) * 1 / 5, at (4, 2).
        differs = {
            2: "decompose at ell=1",
            3: "decompose at ell=1",
            4: "decompose at ell=1, eulerian2 at ell=2, alternating at ell=0",
            5: "decompose at ell=1, eulerian2 at ell=2, alternating at ell=0",
            6: "decompose at ell=1, eulerian2 at ell=2, alternating raised at ell=0",
            7: "decompose at ell=1, eulerian2 at ell=2, alternating raised at ell=0",
            8: "decompose at ell=1, eulerian2 at ell=2, alternating raised at ell=0",
        }
        assert [line for line in out if line.startswith("[fail]")] == [
            line
            for p, faults in differs.items()
            for line in (
                f"[fail] coeff: routes agree p={p} (7 routes, ell=0..{p - 1}; "
                f"differs from closed: {faults})",
                f"[fail] coeff: composition identity p={p}",
            )
        ]


@pytest.fixture
def steps(monkeypatch):
    """The divisors of every checked binomial step, in order."""
    divisors = []
    exact_div = coefficients._exact_div

    def counted(num, den):
        divisors.append(den)
        return exact_div(num, den)

    monkeypatch.setattr(coefficients, "_exact_div", counted)
    return divisors


class TestAlternatingMemos:
    """c_alternating keeps its powers and the first half of each row of
    signed binomials for the process, for p and j up to ROW_CAP, and
    publishes a longer row as a new list."""

    def test_no_key_above_cap(self):
        for p in (ROW_CAP + 1, 2 * ROW_CAP):
            for ell in (0, p - ROW_CAP, p // 2, p - 1):
                c_alternating(p, ell)
        assert not coefficients._POWERS
        assert max(coefficients._SIGNED) == ROW_CAP  # j = ROW_CAP at ell = p - ROW_CAP
        p = ROW_CAP + 1
        assert c_alternating(p, 1) == alternating_sum(p, 1)

    def test_longer_row_is_a_new_list(self):
        p = 60
        power = powers(p)
        assert c_alternating(p, p - 1) == alternating_sum(p, p - 1, power)
        short = coefficients._POWERS[p]
        assert len(short) == 2
        assert c_alternating(p, 0) == alternating_sum(p, 0, power)
        longer = coefficients._POWERS[p]
        assert longer is not short and len(longer) == p + 1
        coefficients._ALTERNATING_VALUES.clear()  # a kept value would skip the row
        assert c_alternating(p, p - 1) == alternating_sum(p, p - 1, power)
        assert coefficients._POWERS[p] is longer
        assert len(short) == 2

    def test_every_ell_descending_extends_the_row(self):
        """From ell = p - 1 down, each call needs one base more than the
        row holds, so the row grows one base at a time from length 1 to
        p + 1 and every base is built by an extension that starts at it;
        j = 1, 2, 3, ... covers both parities of j and of the middle term."""
        for p in range(1, 41):
            power = powers(p)
            for ell in range(p - 1, -1, -1):
                assert c_alternating(p, ell) == alternating_sum(p, ell, power), (p, ell)
                assert coefficients._POWERS[p] == power[: p - ell + 1], (p, ell)

    @staticmethod
    def grow(p, n, j, power):
        """Keep the row x^p, x < n, and no value, then ask for j = p - ell:
        the value is the sum's, the kept row is x^p for x <= max(j, n - 1),
        and the shorter list, once published, is left as it was."""
        short = coefficients._POWERS[p] = power[:n]
        coefficients._ALTERNATING_VALUES.clear()  # a kept value would skip the row
        assert c_alternating(p, p - j) == alternating_sum(p, p - j, power), (p, n, j)
        assert coefficients._POWERS[p] == power[: max(j + 1, n)], (p, n, j)
        assert short == power[:n], (p, n, j)

    def test_row_grows_by_any_jump(self):
        """From every kept length n <= 40 to every j <= 40, so each base is
        built by extensions that start below it at every distance."""
        for p in (7, 60, 400):
            power = powers(p)
            for n in range(1, min(40, p) + 2):
                for j in range(1, min(40, p) + 1):
                    self.grow(p, n, j, power)

    def test_row_grows_across_smooth_bases(self):
        """At p = 400, from n = 63, 80, 242 and 255 (just below 2^6, 3^4,
        3^5 and 2^8) to j just below, at and just above each of 2^6, 3^4,
        2^7, 2 * 3^4, 3^5 and 2^8, and to j = p; 2 * 3^5 = 486 lies past the
        largest base a call reads, p."""
        p = 400
        power = powers(p)
        ends = {p, *(y + d for y in (64, 81, 128, 162, 243, 256) for d in (-1, 0, 1))}
        for n in (63, 80, 242, 255):
            for j in sorted(j for j in ends if j >= n):
                self.grow(p, n, j, power)

    def test_each_binomial_step_is_checked_once(self, steps):
        assert c_alternating(60, 20) == alternating_sum(60, 20)
        assert steps == list(range(1, 21))
        assert c_alternating(70, 30) == alternating_sum(70, 30)  # j = 40 again
        assert steps == list(range(1, 21))


#: (ell, the p called in order at it): every call is a miss, the first
#: cold and each later one after calls at the same ell, below, at and
#: above ROW_CAP. (20, 10) then (512, 10) is the far call from one
#: column's low end to its top at the cap.
EULERIAN2_MISSES = {
    "below-cap": (20, (60, 70, 45, 30, 21)),
    "far-call": (10, (20, ROW_CAP)),
    "from-ell-0": (0, (60, 30, 1, ROW_CAP, ROW_CAP + 1)),
    "past-cap": (3, (ROW_CAP, ROW_CAP + 1, 2 * ROW_CAP)),
    "half-row": (ROW_CAP // 2, (ROW_CAP - 1, ROW_CAP + 1)),
    "last-column": (ROW_CAP, (ROW_CAP + 1, 2 * ROW_CAP)),
}


@pytest.mark.parametrize("ell, ps", EULERIAN2_MISSES.values(), ids=EULERIAN2_MISSES)
def test_eulerian2_miss_takes_one_comb_and_a_step_per_term(steps, monkeypatch, ell, ps):
    """Each c_eulerian2 miss takes its first binomial from one math.comb
    call and each further term from one checked step, whatever came
    before it at that ell, and keeps its value up to ROW_CAP only. A
    repeated point is a hit up to ROW_CAP and the same miss above it."""
    row = _EULERIAN2.row(ell)  # rolled once, served to the oracle and the route
    expected = {p: eulerian2_sum(p, ell, row) for p in ps}
    monkeypatch.setattr(_EULERIAN2, "row", {ell: row}.__getitem__)
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    for p in ps:
        misses = 1 if p <= ROW_CAP else 2
        for call in range(2):
            calls.clear()
            steps.clear()
            assert c_eulerian2(p, ell) == expected[p], (p, call)
            miss = call < misses
            assert len(calls) == miss, (p, call, calls)
            assert len(steps) == miss * (min(len(row), p - ell) - 1), (p, call)
        assert ((p, ell) in coefficients._EULERIAN2_VALUES) == (p <= ROW_CAP), p


# Runs a command and prints its exit code, its ru_maxrss from os.wait4 and
# its stdout. The command is started from this small fresh interpreter:
# started from the test process itself, its ru_maxrss would include the
# test process's high-water mark, which Linux carries across exec.
_MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = proc.stdout.read()
proc.stdout.close()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss, out.decode().strip())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
class TestColdMemory:
    """A cold large coefficient, and a single value past the cap,
    stays in O(p) memory in a fresh process."""

    LIMIT_MB = 64

    POWERSUM_FLAGS = ("eq5", "stir", "euler", "alt3", "ml1-power")

    #: Case -> figurate CLI argv.
    CLI_RUNS = {
        "closed": ["coeff", "--p", "1200", "--ell", "600"],
        "recurrence": ["coeff", "--p", "800", "--ell", "400", "--route", "recurrence"],
        **{
            f"powersum-{f}": ["powersum", "--p", "900", "--n", "10", "--formula", f]
            for f in POWERSUM_FLAGS
        },
    }

    @pytest.mark.parametrize("case", [*CLI_RUNS, *ACCESSORS])
    def test_peak_rss(self, case):
        if case in self.CLI_RUNS:
            argv = self.CLI_RUNS[case]
            command = ["-m", "figurate.cli", *argv]
            p, second = int(argv[2]), int(argv[4])
            if argv[0] == "coeff":
                expected = c_alternating(p, second)
            else:
                expected = second**p if argv[-1] == "ml1-power" else sum_brute(second, p)
        else:
            k, read, value = ACCESSORS[case]
            imports = "from figurate import coefficients, combinatorics as c"
            command = ["-c", f"{imports}; k = {k}; print({read})"]
            expected = value(k)
        src = str(Path(figurate.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _MEASURE, sys.executable, *command],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        code, maxrss_kib, value = done.stdout.split()
        assert code == "0"
        assert int(value) == expected
        assert int(maxrss_kib) / 1024 < self.LIMIT_MB
