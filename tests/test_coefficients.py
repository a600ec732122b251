"""The coefficient routes, their identities, and cross-certification."""

import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from figurate import cli, coefficients, enumeration
from figurate.coefficients import (
    DEFAULT_SIZE_GUARD,
    ROUTE_TABLE,
    ROUTES,
    RouteReport,
    build_triangle,
    c_alternating,
    c_closed,
    c_decompose,
    c_enum_j,
    c_enum_k,
    c_eulerian2,
    c_recurrence,
    certify,
    coefficient,
    decompose_groups,
    split_routes,
    summand_count,
    w_sum,
)
from memo_table import _unkept
from reference import TRIANGLE_9

ENUMERATIVE = {route for route, enumerative in ROUTE_TABLE.items() if enumerative}


class TestClosedRoute:
    def test_values(self):
        assert c_closed(5, 2) == 150
        assert c_closed(1, 0) == 1
        assert c_closed(9, 5) == 186480

    def test_reference_triangle(self):
        assert build_triangle(9, "closed") == TRIANGLE_9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            c_closed(5, 5)
        with pytest.raises(ValueError):
            c_closed(0, 0)


def _plant_factorial(monkeypatch, index, value):
    """index! read as value in every 0!..p! table of _factorials, which
    all three enumerative routes weigh with."""
    real = coefficients.accumulate

    def planted(*args, **kwargs):
        table = list(real(*args, **kwargs))
        if len(table) > index:
            table[index] = value
        return iter(table)

    monkeypatch.setattr(coefficients, "accumulate", planted)


@pytest.fixture
def wrong_factorial_table(monkeypatch):
    """3! read as 3 in every factorial table of _factorials. At
    p = 3 that makes p! itself 3, which 2! does not divide, so the
    enumerative routes raise there."""
    _plant_factorial(monkeypatch, 3, 3)


class TestEnumerationRoutes:
    def test_k_route_values(self):
        assert c_enum_k(5, 1) == 240
        assert c_enum_k(5, 4) == 1
        assert c_enum_k(5, 3) == 30

    def test_j_route_values(self):
        assert c_enum_j(4, 2) == 2**4 - 2 == 14
        assert c_enum_j(5, 0) == 120
        assert c_enum_j(6, 3) == 540

    def test_two_part_closed_forms(self):
        for p in range(2, 11):
            assert c_enum_j(p, p - 2) == 2**p - 2
        for p in range(3, 11):
            assert c_enum_k(p, p - 3) == 3**p - 3 * 2**p + 3

    def test_equal_closed_up_to_16(self):
        # Past p = 9 the k- and j-routes weigh suffix blocks head by head.
        for p in range(1, 17):
            for ell in range(p):
                closed = c_closed(p, ell)
                assert c_enum_k(p, ell) == c_enum_j(p, ell) == c_decompose(p, ell) == closed

    @pytest.mark.parametrize("p, ell", [(7, 3), (12, 6), (14, 7)])
    def test_wrong_factorial_table_disagrees(self, p, ell, wrong_factorial_table):
        # 3! read as 3 in every factorial table of _factorials: every
        # enumerative route weighs with one, whole tuples and blocked heads
        # alike, and certify sees all three disagree.
        report = certify(p, ell)
        closed = report.values["closed"]
        assert {r for r, v in report.values.items() if v != closed} == ENUMERATIVE


#: Per enumerative route: its weight memo, its family's block memo, the
#: recursion and fill its blocks are built with, and the shift its
#: denominators take.
WEIGHED = {
    "enum_k": (coefficients._K_WEIGHTS, enumeration._K_BLOCKS, (enumeration._k_rec, 0), 1),
    "enum_j": (coefficients._J_WEIGHTS, enumeration._J_BLOCKS, (enumeration._j_rec, 1), 0),
}


def _weight(block, shift):
    """(L, N) of a block: the lcm L of its tuples' denominators
    prod((t_i + shift)!), and the sum of L // d over them."""
    dens = [math.prod(math.factorial(e + shift) for e in t) for t in block]
    lcm = math.lcm(*dens)
    return lcm, sum(lcm // d for d in dens)


def _plant_weight(route, key):
    """Publish the block for key in the route's family memo, and in the
    route's weight memo its (L, N) with N one more: every tuple of the
    block still divides, and each head q weighs the block q // L more."""
    weights, blocks, (rec, fill), shift = WEIGHED[route]
    block = enumeration._suffixes(rec, blocks, fill, *key)
    lcm, n = _weight(block, shift)
    weights[id(block)] = (block, lcm, n + 1)


class TestBlockWeights:
    """Each enumerative route keeps its blocks' weights (L, N) for the
    process, beside its family's blocks, and still checks every quotient."""

    @pytest.mark.parametrize("route", ["enum_k", "enum_j"])
    def test_second_call_weighs_no_block(self, route):
        # The second call drops the value the first kept, so it streams the
        # kept blocks and reads their kept weights.
        weights, blocks, _, shift = WEIGHED[route]
        value = coefficient(12, 6, route)
        held = dict(weights)
        assert held
        values = getattr(coefficients, f"_{route.upper()}_VALUES")
        assert _unkept(getattr(coefficients, f"c_{route}"), values)(12, 6) == value
        assert value == c_closed(12, 6)
        assert weights.keys() == held.keys()
        assert all(weights[key] is entry for key, entry in held.items())
        # One entry per block the family's memo holds, its (L, N) from its tuples.
        assert weights.keys() <= set(map(id, blocks.values()))
        assert all((lcm, n) == _weight(block, shift) for block, lcm, n in weights.values())

    def test_certify_to_14_fills_pinned_memos(self):
        # From the empty memos the fixture leaves, certify at every p <= 14
        # builds each block and weighs it once: the figures pin that a
        # block comes only from the head recursion a family streams, and
        # that no route builds or weighs one more.
        for p in range(1, 15):
            for ell in range(p):
                assert certify(p, ell).agree, (p, ell)
        # A family streams only the supports that hold a tuple, so every
        # block kept and every block weighed holds at least one tuple, and
        # N, a sum of one share per tuple, at least as many.
        for weights, blocks, _, _ in WEIGHED.values():
            assert len(blocks) == 311
            assert sum(map(len, blocks.values())) == 4561
            assert len(weights) == 252
            assert all(blocks.values())
            assert all(n >= len(block) > 0 for block, _, n in weights.values())

    @pytest.mark.parametrize(
        "route, key",
        [("enum_k", (6, 3, 3, False)), ("enum_j", (6, 9, 3, False))],
        ids=["k", "j"],
    )
    def test_wrong_denominator_disagrees_on_its_route(self, route, key):
        # The ends of six entries with content 3 in three positive entries
        # (their +1 images for j), read behind heads at (12, 7).
        _plant_weight(route, key)
        report = certify(12, 7)
        closed = report.values["closed"]
        assert {r for r, v in report.values.items() if v != closed} == {route}

    @pytest.mark.parametrize(
        "route, key",
        [("enum_k", (6, 3, 3, False)), ("enum_j", (6, 9, 3, False))],
        ids=["k", "j"],
    )
    def test_wrong_denominator_fails_verify(self, route, key, capsys):
        # One entry serves every p: the planted block is read whole at
        # (7, 3), and behind heads at (12, 7), (13, 7..8) and (14, 7..9).
        # Only the routes-agree lines of those p fail, each at its first ell.
        _plant_weight(route, key)
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "14"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("[fail]")] == [
            f"[fail] coeff: routes agree p={p} (7 routes, ell=0..{p - 1}; "
            f"differs from closed: {route} at ell={ell})"
            for p, ell in [(7, 3), (12, 7), (13, 7), (14, 7)]
        ]

    @pytest.mark.parametrize("route", ["enum_k", "enum_j"])
    def test_inexact_block_names_its_first_denominator(self, route, monkeypatch):
        # 3! read as 78 = 13 * 3!, which 12! does not divide. At (12, 6)
        # the first block that holds an entry read at 3! (k: 2, j: 3) is
        # the second behind the empty head, and its first such tuple is its
        # second, with the other entry read at 5! (k: 4, j: 5): 78 * 120.
        _plant_factorial(monkeypatch, 3, 78)
        with pytest.raises(RuntimeError) as raised:
            coefficient(12, 6, route)
        assert str(raised.value) == "479001600 not divisible by 9360"


class TestRouteErrors:
    """A route that raises RuntimeError inside certify is a disagreement
    that names its error; anything else it raises is not caught."""

    def test_certify_reports_the_error_as_a_value(self, wrong_factorial_table):
        report = certify(3, 1)
        errors = {r for r, v in report.values.items() if isinstance(v, RuntimeError)}
        assert errors == ENUMERATIVE
        assert str(report.values["enum_k"]) == "3 not divisible by 2"
        assert report.value == 6 and not report.agree

    def test_certify_cli_prints_every_route(self, wrong_factorial_table, capsys):
        assert cli.main(["certify", "--p", "3", "--ell", "1"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "p=3 ell=1" and out[-1] == "agree: no"
        assert [line.split()[0] for line in out[1:-1]] == list(ROUTES)
        for line in out[1:-1]:
            route, value = line.split(maxsplit=1)
            if route in ENUMERATIVE:
                assert value == "error: 3 not divisible by 2"
            else:
                assert value == "6"

    def test_verify_prints_its_full_report(self, wrong_factorial_table, capsys):
        # Once a crash with exit 3 and an empty stdout.
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "8"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "summary: 34 passed, 12 failed, 0 skipped"
        failed = {line for line in out if line.startswith("[fail]")}
        # Each routes-agree line names the three enumerative routes, each at
        # its first wrong ell; at p = 3 decompose first raises at ell = 1.
        faults = {3: "enum_k at ell=0, enum_j at ell=0, decompose raised at ell=1"}
        assert failed == {
            f"[fail] coeff: composition identity p={p}" for p in range(3, 9)
        } | {
            f"[fail] coeff: routes agree p={p} (7 routes, ell=0..{p - 1}; differs from closed: "
            + faults.get(p, "enum_k at ell=2, enum_j at ell=2, decompose at ell=2")
            + ")"
            for p in range(3, 9)
        }

    def test_verify_fails_the_lines_reading_a_closed_error(self, monkeypatch, capsys):
        # verify reads each row's values from the closed route.
        real = coefficients.c_closed

        def planted(p, ell):
            if (p, ell) == (5, 2):
                raise RuntimeError("planted")
            return real(p, ell)

        monkeypatch.setattr(coefficients, "c_closed", planted)
        assert cli.main(["verify", "--suite", "coeff", "--pmax", "6"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "summary: 29 passed, 5 failed, 0 skipped"
        assert [line for line in out if line.startswith("[fail]")] == [
            "[fail] coeff: reference triangle rows 1..6",
            "[fail] coeff: routes agree p=5 (7 routes, ell=0..4; differs from closed: "
            "closed raised at ell=2, enum_k at ell=2, enum_j at ell=2, recurrence at ell=2, "
            "decompose at ell=2, eulerian2 at ell=2, alternating at ell=2)",
            "[fail] coeff: row properties p=5",
            "[fail] coeff: closed sub-formulas p=5",
            "[fail] coeff: surjection identity p=5 (brute force included)",
        ]

    def test_alone_a_route_error_still_exits_3(self, wrong_factorial_table, capsys):
        assert cli.main(["coeff", "--p", "3", "--ell", "1", "--route", "enum_k"]) == 3
        assert capsys.readouterr().err == "internal error: 3 not divisible by 2\n"

    def test_refusals_are_not_caught(self):
        with pytest.raises(ValueError, match="exceed the limit of 900 entries"):
            certify(1000, 1, size_guard=1000)

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "--p", "5", "--ell", "2", "--route", "alternating"],
            ["certify", "--p", "5", "--ell", "2"],
        ],
        ids=["coeff", "certify"],
    )
    def test_division_by_zero_is_internal(self, argv, monkeypatch, capsys):
        # A kernel that divides by zero is broken, not misused.
        monkeypatch.setattr(coefficients, "c_alternating", lambda p, ell: 1 // 0)
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: integer division or modulo by zero\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--p", "40", "--ell", "3", "--size-guard", "40"],
            ["verify", "--suite", "coeff", "--pmax", "14"],
        ],
        ids=["certify", "verify"],
    )
    def test_out_of_stack_is_internal(self, argv, monkeypatch, capsys):
        # A route that runs out of stack has failed no check, so certify
        # lets the RecursionError through, as the route alone does. Each
        # enum_k call here runs with 4 frames to spare, which its first
        # stream outgrows while it sizes and builds its suffix blocks.
        real = coefficients.c_enum_k

        def spare(n=0):  # frames the interpreter allows below the caller's
            try:
                return spare(n + 1)
            except RecursionError:
                return n

        def planted(p, ell):
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit - spare() + 4)
            try:
                return real(p, ell)
            finally:
                sys.setrecursionlimit(limit)

        monkeypatch.setattr(coefficients, "c_enum_k", planted)
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: out of stack (the recursion limit)\n"


class TestRecurrenceRoute:
    def test_worked_step(self):
        assert c_recurrence(8, 2) == 191520
        assert c_recurrence(8, 3) == 126000
        assert c_recurrence(9, 3) == 6 * (126000 + 191520) == 1905120

    def test_boundaries(self):
        for p in range(1, 12):
            assert c_recurrence(p, 0) == math.factorial(p)
            assert c_recurrence(p, p - 1) == 1

    def test_value(self):
        assert c_recurrence(7, 4) == 1806


class TestDecomposeRoute:
    def test_worked_example_grouping(self):
        groups = decompose_groups(9, 4)
        assert groups == [(1, 4, 504), (2, 6, 8064), (3, 4, 26460), (4, 1, 30240)]
        assert sum(w * inner for _, w, inner in groups) == 186480
        assert c_decompose(9, 5) == 186480

    def test_groups_end_where_compositions_do(self):
        # j = 6 > p - j = 3: a group of t parts >= 2 needs 2t <= p + t - j.
        groups = decompose_groups(9, 6)
        assert [t for t, _, _ in groups] == [1, 2, 3]
        assert sum(w * inner for _, w, inner in groups) == c_closed(9, 3) == 1905120

    def test_boundaries(self):
        for p in range(1, 10):
            assert c_decompose(p, 0) == math.factorial(p)
            assert c_decompose(p, p - 1) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            c_decompose(5, -1)
        with pytest.raises(ValueError):
            c_decompose(5, 5)


class TestEulerianRoute:
    def test_values(self):
        for p in range(1, 12):
            assert c_eulerian2(p, 0) == math.factorial(p)
        assert c_eulerian2(5, 2) == 150
        assert c_eulerian2(8, 4) == 40824


class TestAlternatingRoute:
    def test_power_forms(self):
        assert c_alternating(6, 4) == 2**6 - 2 == 62
        assert c_alternating(7, 4) == 3**7 - 3 * 2**7 + 3 == 1806
        assert c_alternating(9, 5) == 4**9 - 4 * 3**9 + 6 * 2**9 - 4 == 186480

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            c_alternating(5, -1)
        with pytest.raises(ValueError):
            c_alternating(5, 5)


class TestTupleLengthLimit:
    def test_enumerative_route_refuses_overlong_tuples(self):
        for route in (c_enum_k, c_enum_j):
            # c(1000, 1) sums over length-999 tuples.
            with pytest.raises(ValueError, match="limit of 900"):
                route(1000, 1)
            # Refused before anything is built: no 0!..8000! table.
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="length 7999 exceed the limit of 900 entries"):
                    route(8000, 5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, route

    def test_infeasible_long_groups_are_not_refused(self, monkeypatch):
        # Only t = 1 of the groups at (1000, 999) has compositions, so it is
        # the one group listed and the one composition stream opened.
        assert [t for t, _, _ in decompose_groups(1000, 999)] == [1]
        calls = []
        real = coefficients.enumerate_compositions
        monkeypatch.setattr(
            coefficients, "enumerate_compositions", lambda *args: calls.append(args) or real(*args)
        )
        assert c_decompose(1000, 1) == math.factorial(999) * math.comb(1000, 2)
        assert calls == [(2, 1, 2)]


class TestWSum:
    def test_small_value_against_brute(self):
        # compositions of 4 into 2 positive parts containing a 1
        brute = 0
        for comp in itertools.product(range(1, 5), repeat=2):
            if sum(comp) == 4 and 1 in comp:
                brute += math.factorial(4) // math.prod(math.factorial(c) for c in comp)
        assert brute == 8
        assert w_sum(4, 2) == 8

    def test_single_part_has_no_ones(self):
        for p in range(2, 10):
            assert w_sum(p, 1) == 0

    def test_decomposition_identity(self):
        # min-part-1 composition sum = min-part-2 sum + W(p, j); the oracle
        # enumerates compositions by cut positions, not by the library path
        def cut_compositions(total, parts, min_part):
            for cuts in itertools.combinations(range(1, total), parts - 1):
                comp = tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
                if all(x >= min_part for x in comp):
                    yield comp

        for p in range(2, 11):
            fact_p = math.factorial(p)
            for j in range(1, p):
                total = {}
                for min_part in (1, 2):
                    total[min_part] = sum(
                        fact_p // math.prod(math.factorial(c) for c in comp)
                        for comp in cut_compositions(p, j, min_part)
                    )
                assert total[1] == total[2] + w_sum(p, j)
                assert total[1] == c_decompose(p, p - j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            w_sum(5, 5)


class TestSummandCount:
    def test_values(self):
        assert summand_count(9, 4) == 56
        for p in range(2, 12):
            assert summand_count(p, 1) == 1
        assert summand_count(6, 3) == 10

    def test_matches_streamed_composition_count(self):
        from figurate.enumeration import enumerate_compositions

        for p in range(2, 13):
            for j in range(1, p):
                streamed = sum(
                    math.comb(j, t)
                    * sum(1 for _ in enumerate_compositions(p + t - j, t, 2))
                    for t in range(1, j + 1)
                )
                assert summand_count(p, j) == streamed == math.comb(p - 1, j - 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            summand_count(5, 5)


class TestRouteAgreement:
    def test_all_routes_p_up_to_10(self):
        for p in range(1, 11):
            for ell in range(p):
                values = {route: coefficient(p, ell, route) for route in ROUTES}
                assert len(set(values.values())) == 1, (p, ell, values)

    def test_nonenumerative_routes_p_up_to_25(self):
        fast = [r for r in ROUTES if r not in ENUMERATIVE]
        for p in range(1, 26):
            for ell in range(p):
                values = {coefficient(p, ell, route) for route in fast}
                assert len(values) == 1, (p, ell)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            coefficient(3, 1, "magic")


class TestPairChecks:
    """coefficient() and certify() leave (p, ell) to the routes, and every
    route checks it with the same message."""

    @pytest.mark.parametrize("p, ell", [(0, 0), (3, -1), (3, 3)])
    def test_every_route_refuses_an_invalid_pair(self, p, ell):
        with pytest.raises(ValueError) as expected:
            enumeration._check_pair(p, ell)
        for route in ROUTES:
            with pytest.raises(ValueError) as got:
                coefficient(p, ell, route)
            assert str(got.value) == str(expected.value), route
        with pytest.raises(ValueError) as got:
            certify(p, ell)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("p, ell", [(10.0, 4), (10, 4.0)])
    def test_every_route_refuses_a_float(self, route, p, ell, warm):
        """A float equal to an int is refused, also after a call at that int
        point, whose value a route may keep under a key the float hashes to."""
        if warm:
            coefficient(10, 4, route)
        with pytest.raises(TypeError):
            coefficient(p, ell, route)

    @pytest.mark.parametrize("p, ell", [(3, 1), (0, 0)])
    def test_unknown_route_names_the_routes(self, p, ell):
        with pytest.raises(ValueError) as got:
            coefficient(p, ell, "nope")
        assert str(got.value) == f"unknown route 'nope'; expected one of {ROUTES}"


class TestRouteTable:
    def test_every_route_is_a_function_of_p_and_ell(self):
        for route in ROUTES:
            fn = getattr(coefficients, f"c_{route}")
            assert callable(fn)
            assert tuple(fn(9, ell) for ell in range(9)) == TRIANGLE_9[8], route

    def test_enumerative_routes(self):
        assert ENUMERATIVE == {"enum_k", "enum_j", "decompose"}

    def test_coefficient_resolves_the_route_at_call_time(self, monkeypatch):
        # Instrumentation that replaces a module's c_<route> must see every
        # call coefficient() makes, so no function reference may be cached.
        monkeypatch.setattr(coefficients, "c_alternating", lambda p, ell: -1)
        assert coefficient(5, 2, "alternating") == -1
        assert certify(5, 2).values["alternating"] == -1

    def test_split_routes(self):
        assert split_routes(ROUTES, 14, 14) == (list(ROUTES), [])
        assert split_routes(ROUTES, 15, 14) == (
            ["closed", "recurrence", "eulerian2", "alternating"],
            ["enum_k", "enum_j", "decompose"],
        )
        assert split_routes(["decompose", "closed"], 15, 14) == (["closed"], ["decompose"])


class TestRowProperties:
    def test_boundaries_and_alternating_sum(self):
        triangle = build_triangle(25)
        for p in range(1, 26):
            row = triangle[p - 1]
            assert row[0] == math.factorial(p)
            assert row[-1] == 1
            assert sum((-1) ** ell * c for ell, c in enumerate(row)) == 1
            assert all(c > 0 for c in row)

    def test_closed_sub_formulas(self):
        for p in range(2, 26):
            assert Fraction(c_closed(p, 1)) == Fraction(p - 1, 2) * math.factorial(p)
        for p in range(3, 26):
            expect = Fraction(1, 8) * math.factorial(p) * (p - 2) * (Fraction(3 * p - 5, 3))
            assert Fraction(c_closed(p, 2)) == expect

    def test_surjection_identity(self):
        # j! S(p, j) counts the surjections onto a j-set, by inclusion-exclusion.
        for p in range(1, 26):
            for j in range(1, p + 1):
                onto = sum((-1) ** r * math.comb(j, r) * (j - r) ** p for r in range(j + 1))
                assert c_closed(p, p - j) == onto


class TestTriangle:
    def test_single_row(self):
        assert build_triangle(1) == ((1,),)

    def test_routes_build_identical_triangles(self):
        triangles = [build_triangle(8, route) for route in ROUTES]
        assert all(t == triangles[0] for t in triangles)

    def test_row_accessor(self):
        t = build_triangle(5, "enum_k")
        assert t[5 - 1] == (120, 240, 150, 30, 1)
        assert len(t) == 5

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_triangle(0)
        with pytest.raises(ValueError):
            build_triangle(3, "magic")


class TestCertify:
    def test_full_agreement(self):
        report = certify(5, 2)
        assert set(report.values) == set(ROUTES)
        assert set(report.values.values()) == {150}
        assert report.agree
        assert report.skipped == ()
        assert report.value == 150

    def test_worked_value(self):
        report = certify(9, 5)
        assert report.agree
        assert report.value == 186480

    def test_cross_route_oracle_at_12_6(self):
        report = certify(12, 6)
        assert report.agree

    def test_size_guard_skips_enumerative_routes(self):
        report = certify(16, 3, size_guard=DEFAULT_SIZE_GUARD)
        assert set(report.skipped) == ENUMERATIVE
        assert set(report.values) == set(ROUTES) - ENUMERATIVE
        assert report.agree

    def test_guard_override_runs_everything(self):
        report = certify(15, 14, size_guard=15)
        assert report.skipped == ()
        assert report.agree

    def test_report_type(self):
        assert isinstance(certify(3, 1), RouteReport)
