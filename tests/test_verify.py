"""The verify runner: suite dispatch, the fixed-range powersum checks and
the planted faults each check must catch."""

import re
from fractions import Fraction

import pytest

from figurate import cli, coefficients, combinatorics, enumeration, fermat, powersum, verify
from figurate.verify import SUITES, CheckResult, run_suites


def _status(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check.status


@pytest.mark.parametrize("suite", SUITES)
def test_runs_replaced_suite(suite, monkeypatch):
    # A _<suite>_checks replaced on the module is the one run_suites calls.
    seen = []

    def stand_in(pmax, size_guard):
        seen.append((pmax, size_guard))
        return [("stand-in", True)]

    monkeypatch.setattr(verify, f"_{suite}_checks", stand_in)
    report = run_suites([suite], 3, 7)
    assert seen == [(3, 7)]
    assert [(c.suite, c.name) for c in report.checks] == [(suite, "stand-in")]


@pytest.mark.parametrize("suite", SUITES)
def test_runner_writes_every_line(suite, monkeypatch):
    # run_suites names the suite, reads ok for its truth and writes each
    # skip's detail from its own guard; a falsy ok is a fail, never a skip.
    def stand_in(pmax, size_guard):
        return [
            ("false", False),
            ("zero", 0),
            ("none", None),
            ("empty", ""),
            ("true", True, "with detail"),
            ("clipped", verify._SKIP),
        ]

    monkeypatch.setattr(verify, f"_{suite}_checks", stand_in)
    report = run_suites([suite], 3, 7)
    assert report.checks == (
        CheckResult(suite, "false", "fail"),
        CheckResult(suite, "zero", "fail"),
        CheckResult(suite, "none", "fail"),
        CheckResult(suite, "empty", "fail"),
        CheckResult(suite, "true", "pass", "with detail"),
        CheckResult(suite, "clipped", "skipped", "size guard 7"),
    )
    assert (report.passed, report.failed, report.skipped) == (1, 4, 1)


@pytest.mark.parametrize(
    "suites, size_guard, message",
    [(["coeff"], 0, "size guard must be positive"), (["nope"], 14, "unknown suites ['nope']")],
    ids=["size_guard", "suite"],
)
def test_refuses_bad_arguments(suites, size_guard, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suites(suites, 3, size_guard)


def test_faulhaber_nonzero_covers_p12_at_small_pmax(monkeypatch):
    real = powersum.faulhaber_coefficients

    def planted(p):
        return (Fraction(0),) + real(p)[1:] if p == 12 else real(p)

    monkeypatch.setattr(powersum, "faulhaber_coefficients", planted)
    report = run_suites(["powersum"], 5, 14)
    assert _status(report, "faulhaber coefficients nonzero p<=12") == "fail"
    assert report.failed == 1


@pytest.mark.usefixtures("fresh_powersum_caches")
def test_eulerian_symmetry_covers_p12_at_small_pmax(monkeypatch):
    real = powersum.representation

    def planted(tag, p):
        rep = real(tag, p)
        if (tag, p) != ("alt2", 12):
            return rep
        (c, dim, shift), *rest = rep
        return ((c + 1, dim, shift), *rest)

    monkeypatch.setattr(powersum, "representation", planted)
    report = run_suites(["powersum"], 5, 14)
    assert _status(report, "eulerian coefficient symmetry p<=12") == "fail"
    assert report.failed == 1


@pytest.mark.parametrize("tag", [t for t in powersum.FORMULA_TAGS if t != "brute"])
def test_pointwise_agreement_runs_the_formula_dispatcher(tag, monkeypatch):
    real = powersum.evaluate_formula

    def planted(t, n, p):
        return real(t, n, p) + ((t, n, p) == (tag, 50, 4))

    monkeypatch.setattr(powersum, "evaluate_formula", planted)
    report = run_suites(["powersum"], 5, 14)
    assert _status(report, "pointwise agreement p=4") == "fail"
    assert report.failed == 1


@pytest.mark.parametrize("family", ["stirling1", "stirling2"])
def test_orthogonality_row_reads_rows_past_the_cap(family, monkeypatch):
    k = combinatorics.ROW_CAP + 8
    assert verify.orthogonality_row(k, 2)
    real = combinatorics.number_triangle

    def planted(fam, max_row):
        rows = real(fam, max_row).rows
        if fam == family:
            rows = (*rows[:k], (rows[k][0], rows[k][1] + 1, *rows[k][2:]))
        return combinatorics.NumberTriangle(rows, 0)

    monkeypatch.setattr(combinatorics, "number_triangle", planted)
    assert not verify.orthogonality_row(k, 2)


def test_tuple_families_check_emission_order(monkeypatch):
    # Two neighbours swapped leave the j stream's set of tuples as it was;
    # only the +1 image of the k stream in emission order tells them apart.
    real = enumeration.enumerate_j_tuples

    def planted(p, ell):
        tuples = list(real(p, ell))
        if (p, ell) == (6, 3):
            tuples[4], tuples[5] = tuples[5], tuples[4]
        return iter(tuples)

    monkeypatch.setattr(enumeration, "enumerate_j_tuples", planted)
    report = run_suites(["enumeration"], 6, 14)
    assert _status(report, "tuple families p=6") == "fail"
    assert report.failed == 1


def _plant_in_both_streams(monkeypatch, change, at=(6, 3)):
    """Both tuple families for (p, ell) = `at` with `change` applied to
    each stream's list."""
    for name in ("enumerate_k_tuples", "enumerate_j_tuples"):
        real = getattr(enumeration, name)

        def planted(p, ell, real=real):
            tuples = list(real(p, ell))
            if (p, ell) == at:
                change(tuples)
            return iter(tuples)

        monkeypatch.setattr(enumeration, name, planted)


def _swap_neighbours(tuples):
    tuples[4], tuples[5] = tuples[5], tuples[4]


def _repeat_in_place_of_successor(tuples):
    tuples[5] = tuples[4]


@pytest.mark.parametrize("change", [_swap_neighbours, _repeat_in_place_of_successor])
def test_tuple_families_check_order_and_distinctness(monkeypatch, change):
    # Both streams still pair up entrywise, keep every invariant and the
    # count, and a swap keeps each stream's set of tuples: only the k
    # stream's (length, tuple) order gives either fault away.
    _plant_in_both_streams(monkeypatch, change)
    report = run_suites(["enumeration"], 6, 14)
    assert _status(report, "tuple families p=6") == "fail"
    assert report.failed == 1


@pytest.mark.parametrize(
    "at, swaps",
    [
        # (-1, 3) for the k-tuple (0, 2) and its +1 image (0, 4) for the
        # j-tuple (1, 3): still paired, in order, of content 2 with one
        # positive entry, and the j-tuple keeps its sum, length and
        # big-then-1 rule; the negative entry and the lost zero give it away.
        ((4, 2), {(0, 2): (-1, 3), (1, 3): (0, 4)}),
        # The same with the zeros kept: (0, -1, 0, 3) and its image
        # (1, 0, 1, 4) pass every other check.
        ((5, 2), {(0, 1, 0, 1): (0, -1, 0, 3), (1, 2, 1, 2): (1, 0, 1, 4)}),
        # A j-tuple with a 2 followed by a 2: positive, summing to 6 with
        # two entries >= 2 in four, as every j-tuple of (5, 2) that long.
        ((5, 2), {(2, 1, 1, 2): (2, 2, 1, 1)}),
        # A j-tuple with one entry raised by 1.
        ((6, 3), {(1, 4, 1): (1, 5, 1)}),
        # Pairs that break one k-tuple fact each and keep every other: the
        # content, the number of zeros, and no two positives side by side.
        ((4, 2), {(0, 2): (0, 3), (1, 3): (1, 4)}),
        ((5, 2), {(0, 2, 0): (1, 0, 1), (1, 3, 1): (2, 1, 2)}),
        ((5, 2), {(0, 1, 0, 1): (0, 1, 1, 0), (1, 2, 1, 2): (1, 2, 2, 1)}),
    ],
    ids=[
        "sign", "sign-zeros-kept", "big-then-big", "raised-entry",
        "content", "zeros", "side-by-side",
    ],
)
def test_tuple_families_fail_only_the_planted_family(monkeypatch, at, swaps):
    # No k-tuple is a j-tuple here (one holds a 0, the other none), so a
    # swap changes only the stream that holds its tuple.
    def change(tuples):
        tuples[:] = [swaps.get(t, t) for t in tuples]

    _plant_in_both_streams(monkeypatch, change, at)
    assert _failed(run_suites(["enumeration"], 6, 14)) == [f"tuple families p={at[0]}"]


def test_tuple_families_check_stream_lengths(monkeypatch):
    real = enumeration.enumerate_j_tuples

    def short(p, ell):
        tuples = list(real(p, ell))
        return iter(tuples[:-1] if (p, ell) == (6, 3) else tuples)

    monkeypatch.setattr(enumeration, "enumerate_j_tuples", short)
    report = run_suites(["enumeration"], 6, 14)
    assert _status(report, "tuple families p=6") == "fail"
    assert report.failed == 1


def test_coeff_suite_calls_each_route_once_per_cell(monkeypatch):
    # coefficient() resolves c_<route> at call time, so counters replaced
    # on the module see every call, certify()'s included.
    calls = dict.fromkeys(coefficients.ROUTES, 0)

    def counted(route, real):
        def c(p, ell):
            calls[route] += 1
            return real(p, ell)

        return c

    for route in coefficients.ROUTES:
        name = f"c_{route}"
        monkeypatch.setattr(coefficients, name, counted(route, getattr(coefficients, name)))
    report = run_suites(["coeff"], 14, 14)
    assert report.ok
    # 105 certify cells (p = 1..14); the reference triangle is read from
    # their reports.
    assert calls == dict.fromkeys(coefficients.ROUTES, 105)


def _drop_composition(monkeypatch, request, victim):
    """enumerate_compositions, on both of its bindings, with `victim`
    missing from the stream for `request` = (total, parts, min_part)."""
    real = enumeration.enumerate_compositions

    def planted(total, parts, min_part):
        for s in real(total, parts, min_part):
            if (total, parts, min_part) != request or s != victim:
                yield s

    monkeypatch.setattr(enumeration, "enumerate_compositions", planted)
    monkeypatch.setattr(coefficients, "enumerate_compositions", planted)


def _failed(report):
    return [c.name for c in report.checks if c.status == "fail"]


def test_bad_min_part_1_composition_fails_its_identity(monkeypatch, capsys):
    # (1, 4) missing from the compositions of 5 into 2 parts: the decompose
    # route never streams min-part-1 compositions, so only the identity
    # sees it, and verify reports a failed line rather than raising.
    _drop_composition(monkeypatch, (5, 2, 1), (1, 4))
    assert _failed(run_suites(["coeff"], 6, 14)) == ["composition identity p=5"]
    assert cli.main(["verify", "--suite", "coeff", "--pmax", "6"]) == 1
    assert "[fail] coeff: composition identity p=5" in capsys.readouterr().out


def test_bad_min_part_2_composition_fails_every_line_that_streams_it(monkeypatch):
    # (2, 4) missing from the compositions of 6 into 2 parts, each >= 2:
    # decompose at (p, ell) = (6, 4), the min-part-2 rest of the identity
    # and the summand count all stream it.
    _drop_composition(monkeypatch, (6, 2, 2), (2, 4))
    assert _failed(run_suites(["coeff"], 6, 14)) == [
        "routes agree p=6",
        "composition identity p=6",
        "summand counts p=6",
    ]


def test_wrong_composition_sum_fails_its_identity(monkeypatch):
    # The decompose route at (p, ell) = (6, 4) weighs the compositions of 6
    # into 2 parts, each >= 2, for its t = 2 group. On the route's binding
    # only, that stream gains (6, 0), which adds 6! / (6! 0!) = 1 to the
    # group's sum; verify weighs that set in its own pass through its own
    # binding, so only the route and the oracle's total see the fault.
    real = coefficients.enumerate_compositions

    def planted(total, parts, min_part):
        yield from real(total, parts, min_part)
        if (total, parts, min_part) == (6, 2, 2):
            yield (6, 0)

    monkeypatch.setattr(coefficients, "enumerate_compositions", planted)
    assert _failed(run_suites(["coeff"], 6, 14)) == [
        "routes agree p=6",
        "composition identity p=6",
    ]


def test_wrong_w_sum_fails_its_identity(monkeypatch):
    real = coefficients.w_sum
    monkeypatch.setattr(coefficients, "w_sum", lambda p, j: real(p, j) + ((p, j) == (5, 2)))
    assert _failed(run_suites(["coeff"], 6, 14)) == ["composition identity p=5"]


def test_wrong_summand_count_fails_its_line(monkeypatch):
    real = coefficients.summand_count
    monkeypatch.setattr(
        coefficients, "summand_count", lambda p, j: real(p, j) + ((p, j) == (6, 3))
    )
    assert _failed(run_suites(["coeff"], 6, 14)) == ["summand counts p=6"]


def _drop_suffix(monkeypatch, blocks, key, victim):
    """enumeration._suffixes with `victim` missing from the suffix block
    for key = (width, rem, count, prev) of the family whose memo is
    blocks, however often it is read; the other family's blocks are
    untouched."""
    real = enumeration._suffixes

    def planted(rec, memo, fill, *args):
        block = real(rec, memo, fill, *args)
        return [t for t in block if t != victim] if memo is blocks and args == key else block

    monkeypatch.setattr(enumeration, "_suffixes", planted)


@pytest.mark.parametrize(
    "blocks, key, victim",
    [
        # Three entries, content 4 in one positive entry: (0, 0, 4), (0, 4, 0), (4, 0, 0).
        (enumeration._K_BLOCKS, (3, 4, 1, False), (0, 4, 0)),
        # Three entries summing to 7 with one entry >= 2: its +1 image.
        (enumeration._J_BLOCKS, (3, 7, 1, False), (1, 5, 1)),
    ],
    ids=["k", "j"],
)
def test_dropped_suffix_fails_its_families_and_routes(monkeypatch, blocks, key, victim):
    # Every family streams suffix blocks. The planted block is first read
    # at p = 7, by the one-positive (one-big) tuples of length 3 at ell = 4,
    # and from there on, through the wider blocks built from it, by ell = 4
    # at every p, so one family's stream and its route fall short at
    # p = 7..10, and nowhere else.
    _drop_suffix(monkeypatch, blocks, key, victim)
    assert _failed(run_suites(["all"], 10, 14)) == [
        *(f"routes agree p={p}" for p in range(7, 11)),
        *(f"tuple families p={p}" for p in range(7, 11)),
    ]


def test_wrong_stirling_value_fails_the_surjection_identity(monkeypatch):
    # S(12, 5) + 2 on both bindings: the closed route reads the wrong value,
    # and above the brute-force range only the surjection row that verify
    # steps itself tells it apart.
    real = combinatorics.stirling2

    def planted(k, j):
        return real(k, j) + 2 * ((k, j) == (12, 5))

    monkeypatch.setattr(combinatorics, "stirling2", planted)
    monkeypatch.setattr(coefficients, "stirling2", planted)
    assert _failed(run_suites(["coeff"], 12, 14)) == [
        "routes agree p=12",
        "row properties p=12",
        "surjection identity p=12",
    ]


def _plant_entry(monkeypatch, builder, order, k, j, delta):
    """fermat.<builder>(order) with delta added to its entry (k, j); every
    other order is built as before."""
    real = getattr(fermat, builder)

    def planted(p):
        matrix = real(p)
        if p != order:
            return matrix
        rows = [list(row) for row in matrix.rows]
        rows[k - 1][j - 1] += delta
        return fermat.RationalMatrix(rows)

    monkeypatch.setattr(fermat, builder, planted)


@pytest.mark.parametrize(
    "builder, k, j, delta",
    [
        ("build_fermat", 6, 2, Fraction(1, 720)),  # below the diagonal, over 6!
        ("build_fermat", 9, 4, Fraction(1, 7)),  # a new row scale
        ("build_fermat", 3, 10, Fraction(1, 2)),  # above the diagonal
        ("inverse_closed", 6, 3, 1),
        ("inverse_closed", 11, 1, -1),
        ("inverse_closed", 4, 12, 5),  # above the diagonal
        ("inverse_closed", 2, 2, Fraction(1, 3)),  # on it, not an integer
    ],
)
def test_wrong_entry_at_pmax_fails_inverse_lines_from_its_row(
    monkeypatch, builder, k, j, delta
):
    # The row checks run once, on A_pmax and C_pmax: a wrong entry in row
    # k fails the certificate of every p >= k and no other line.
    pmax = 13
    _plant_entry(monkeypatch, builder, pmax, k, j, delta)
    report = run_suites(["fermat"], pmax, 14)
    assert _failed(report) == [f"inverse certified p={p}" for p in range(k, pmax + 1)]
    assert cli.main(["verify", "--suite", "fermat", "--pmax", str(pmax)]) == 1


@pytest.mark.parametrize(
    "builder, at, k, j, delta",
    [
        ("build_fermat", 6, 5, 2, Fraction(1, 120)),
        ("build_fermat", 6, 3, 3, 1),  # on the diagonal
        ("build_fermat", 6, 1, 1, Fraction(-1, 2)),  # the same ints over scale 2
        ("inverse_closed", 9, 7, 1, 1),
        ("inverse_closed", 12, 12, 12, -1),
    ],
)
def test_fault_at_one_order_fails_that_order_only(monkeypatch, builder, at, k, j, delta):
    # build_fermat(p) and inverse_closed(p) must be the leading blocks of
    # the matrices certified at pmax; a fault at one p < pmax fails its
    # certificate, and a fault in row p of C_p its power-basis row too.
    # The determinants step along the diagonal of A_pmax, so they hold.
    _plant_entry(monkeypatch, builder, at, k, j, delta)
    want = [f"inverse certified p={at}"]
    if (builder, k, j) == ("inverse_closed", at, at):  # the entry (p, p) it reads
        want.append(f"power-basis row p={at}")
    assert _failed(run_suites(["fermat"], 13, 14)) == want


def test_fermat_one_pass_agrees_with_certify_inverse():
    a, c = fermat.build_fermat(40), fermat.inverse_closed(40)
    assert fermat.certified_rows(a, c) == 40
    assert all(fermat.certify_inverse(p) for p in range(1, 41))
    for p in range(1, 41):
        assert fermat.is_leading_block(fermat.build_fermat(p), a)
        assert fermat.is_leading_block(fermat.inverse_closed(p), c)
    assert not fermat.is_leading_block(fermat.build_fermat(5), fermat.inverse_closed(40))
