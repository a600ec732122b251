"""Single-value kernels of the table routes, the policy that picks
between them and the row tables, and the term-stepped sums of the
alternating and eulerian2 routes."""

import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import figurate
from figurate import coefficients, combinatorics, powersum
from figurate.coefficients import (
    _RECURRENCE,
    _recurrence_step,
    build_triangle,
    c_alternating,
    c_closed,
    c_eulerian2,
    c_recurrence,
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
from figurate.powersum import TERM_TAGS, representation, sum_brute

TABLES = {"stirling2": _STIRLING2, "recurrence": _RECURRENCE, "eulerian2": _EULERIAN2}
ALL_TABLES = {"stirling1": _STIRLING1, "eulerian1": _EULERIAN1, **TABLES}
TABLE_ROUTES = (c_closed, c_recurrence, c_eulerian2)
LARGE_P = (ROW_CAP, ROW_CAP + 1, 700)


def _fractions(p):
    return sorted({int(p * f / 10) for f in range(1, 10)})


def _row_counts():
    return {name: len(table._rows) for name, table in TABLES.items()}


@pytest.fixture
def kernels_only(monkeypatch):
    """Every table lookup misses, so the routes run their kernels."""
    monkeypatch.setattr(_RowTable, "lookup", lambda self, index: None)


@pytest.fixture
def no_kernels(monkeypatch):
    """Any kernel call fails the test."""

    def refuse(*args):
        raise AssertionError(f"kernel called with {args}")

    monkeypatch.setattr(coefficients, "stirling2_single", refuse)
    monkeypatch.setattr(_RowTable, "rolled", refuse)


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
    def test_rolled_prefixes_match_rows(self, name):
        table = ALL_TABLES[name]
        rows = [table.row(i) for i in range(81)]
        stored = len(table._rows)
        for i, row in enumerate(rows):
            for width in range(len(row) + 2):
                assert table.rolled(i, width) == row[:width], (i, width)
        assert len(table._rows) == stored

    @pytest.mark.parametrize("p", range(1, 81, 10))
    def test_recurrence_single(self, p):
        for q in range(p, p + 10):
            values = tuple(_RECURRENCE.rolled(q - 1, ell + 1)[ell] for ell in range(q))
            assert values == _RECURRENCE.row(q - 1)

    def test_eulerian2_row(self):
        for ell in range(81):
            assert _EULERIAN2.rolled(ell) == _EULERIAN2.row(ell)

    def test_routes_on_kernels_match_tables(self, monkeypatch):
        expected = {
            route: [route(p, ell) for p in range(1, 81) for ell in range(p)]
            for route in TABLE_ROUTES
        }
        monkeypatch.setattr(_RowTable, "lookup", lambda self, index: None)
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


def alternating_sum(p, ell):
    """The alternating route as one sum with math.comb for every term."""
    j = p - ell
    return sum((-1) ** r * math.comb(j, r) * (j - r) ** p for r in range(j))


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
            for ell in range(p):
                assert c_alternating(p, ell) == alternating_sum(p, ell), (p, ell)
                row = _EULERIAN2.row(ell)
                assert c_eulerian2(p, ell) == eulerian2_sum(p, ell, row), (p, ell)

    @pytest.mark.parametrize("p", LARGE_P)
    def test_alternating_large(self, p):
        for ell in self.large_ells(p):
            assert c_alternating(p, ell) == alternating_sum(p, ell), (p, ell)

    def test_eulerian2_large(self, monkeypatch):
        """Rows ell of <<., .>> are rolled once in ascending order and
        handed to the route, so no row past the cap is rolled twice."""

        def current_row(index, width=None):
            assert index == ell
            return row

        monkeypatch.setattr(_EULERIAN2, "once", current_row)
        ells = {p: set(self.large_ells(p)) for p in self.LARGE_P}
        row = _EULERIAN2.row(0)
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
        table = _RowTable((1,), _stirling2_step)
        assert table.lookup(ROW_CAP - 1) == table.row(ROW_CAP - 1)
        assert len(table._rows) == ROW_CAP
        assert table.lookup(ROW_CAP + 1) is None
        assert len(table._rows) == ROW_CAP
        assert table.lookup(ROW_CAP) is not None  # the next row
        assert len(table._rows) == ROW_CAP + 1
        assert table.lookup(3) is table._rows[3]

    def test_number_triangle_past_cap_stores_rows(self):
        triangle = number_triangle("stirling2", ROW_CAP + 3)
        assert len(_STIRLING2._rows) >= ROW_CAP + 4
        last = triangle.rows[ROW_CAP + 3]
        for j in _fractions(ROW_CAP + 3):
            assert last[j] == stirling2_single(ROW_CAP + 3, j)

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
        _STIRLING2.row(p)
        _RECURRENCE.row(p - 1)
        _EULERIAN2.row(40)
        for ell in (0, 1, p // 2, p - 1):
            assert c_closed(p, ell) == c_recurrence(p, ell)
        assert c_eulerian2(p, 40) == c_closed(p, 40)

    def test_next_row_grows_table(self, no_kernels):
        for route, table, offset in ((c_closed, _STIRLING2, 0), (c_recurrence, _RECURRENCE, 1)):
            table.row(ROW_CAP)
            stored = len(table._rows)
            p = stored + offset
            assert route(p, 1) == c_alternating(p, 1)
            assert len(table._rows) == stored + 1

    def test_representation_above_cap_reads_one_row(self, monkeypatch):
        """Every term list past the cap rolls its one row: no table grows,
        and no per-value accessor, c_closed or stirling2_single runs."""

        def refuse(*args):
            raise AssertionError(f"per-value call with {args}")

        names = ("c_closed", "stirling2_single", "surjection_count", "stirling2", "eulerian_first")
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
        """8 threads mix table reads, growth and rolled rows (once()) on a
        fresh table with a small cap; every value equals a single-threaded
        build."""
        monkeypatch.setattr(combinatorics, "ROW_CAP", 20)
        rows, threads_n = 90, 8
        reference = _RowTable((1,), _recurrence_step)
        expected = [reference.row(i)[i // 2] for i in range(rows)]
        table = _RowTable((1,), _recurrence_step)
        barrier = threading.Barrier(threads_n)
        seen = [[] for _ in range(threads_n)]

        def worker(t):
            barrier.wait(timeout=5)
            for i in list(range(t, rows, 3)) + list(range(rows - 1 - t, -1, -5)):
                seen[t].append((i, table.once(i, i // 2 + 1)[i // 2]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(seen)
        for pairs in seen:
            for i, value in pairs:
                assert value == expected[i], i
        for i, row in enumerate(table._rows):
            assert row == reference.row(i)


class TestRouteIndependence:
    """The alternating route reads no row table, and the eulerian2 route
    reads only the second-kind Eulerian one; neither runs the closed
    route's kernel."""

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

        for name in ("row", "lookup", "rolled", "once"):
            guard(name)

        def refuse(*args):
            raise AssertionError(f"stirling2_single{args}")

        monkeypatch.setattr(coefficients, "stirling2_single", refuse)
        return allowed

    def test_alternating_reads_no_table(self, refuse_tables):
        for p, ell in self.PAIRS:
            assert c_alternating(p, ell) == alternating_sum(p, ell), (p, ell)

    def test_eulerian2_reads_its_own_table(self, refuse_tables):
        expected = [alternating_sum(p, ell) for p, ell in self.PAIRS]
        refuse_tables.add(_EULERIAN2)
        assert [c_eulerian2(p, ell) for p, ell in self.PAIRS] == expected


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
    """A cold large coefficient stays in O(p) memory in a fresh process."""

    LIMIT_MB = 64

    POWERSUM_FLAGS = ("eq5", "stir", "euler", "alt3", "ml1-power")

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--p", "1200", "--ell", "600"],
            ["coeff", "--p", "800", "--ell", "400", "--route", "recurrence"],
            *(["powersum", "--p", "900", "--n", "10", "--formula", f] for f in POWERSUM_FLAGS),
        ],
        ids=["closed", "recurrence", *(f"powersum-{f}" for f in POWERSUM_FLAGS)],
    )
    def test_peak_rss(self, argv):
        src = str(Path(figurate.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _MEASURE, sys.executable, "-m", "figurate.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        code, maxrss_kib, value = done.stdout.split()
        assert code == "0"
        p, second = int(argv[2]), int(argv[4])
        if argv[0] == "coeff":
            expected = c_alternating(p, second)
        else:
            expected = second**p if argv[-1] == "ml1-power" else sum_brute(second, p)
        assert int(value) == expected
        assert int(maxrss_kib) / 1024 < self.LIMIT_MB
