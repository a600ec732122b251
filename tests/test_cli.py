"""CLI behaviours: output formats, determinism, exit codes, size guard."""

import argparse
import functools
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import figurate
from figurate import cli, combinatorics, powersum
from figurate.cli import build_parser, main
from figurate.coefficients import ROUTES
from figurate.combinatorics import FAMILIES
from figurate.enumeration import MAX_TUPLE_LENGTH
from figurate.powersum import FORMULA_FLAGS
from figurate.verify import SUITES
from reference import FERMAT_5_CELLS, INVERSE_5_CELLS, TRIANGLE_9


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangle:
    def test_csv_matches_reference(self, capsys):
        code, out, _ = run(capsys, "triangle", "--pmax", "9", "--format", "csv")
        assert code == 0
        rows = tuple(
            tuple(int(cell) for cell in line.split(",")) for line in out.splitlines()
        )
        assert rows == TRIANGLE_9

    def test_plain_has_header_and_values(self, capsys):
        code, out, _ = run(capsys, "triangle", "--pmax", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("p\\ell")
        assert lines[5].split() == ["5", "120", "240", "150", "30", "1"]

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "triangle", "--pmax", "9", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == "closed"
        rows = tuple(tuple(int(c) for c in row) for row in doc["rows"])
        assert rows == TRIANGLE_9

    def test_route_selection(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--pmax", "5", "--route", "enum_k", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[4] == "120,240,150,30,1"

    def test_family_export(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--pmax", "4", "--family", "stirling2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["1", "0,1", "0,1,1", "0,1,3,1", "0,1,7,6,1"]

    def test_family_json(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--pmax", "3", "--family", "eulerian1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["first_row"] == 1
        assert doc["rows"] == [["1"], ["1", "1"], ["1", "4", "1"]]

    @pytest.mark.parametrize(
        "family", [None, "stirling1", "stirling2", "eulerian1", "eulerian2"]
    )
    def test_negative_pmax_is_usage_error(self, capsys, family):
        argv = ["triangle", "--pmax", "-3"] + (["--family", family] if family else [])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_enumerative_route_within_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("FIGURATE_SIZE_GUARD", raising=False)
        code, out, _ = run(capsys, "triangle", "--pmax", "14", "--route", "enum_k", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 14

    @pytest.mark.parametrize("route", ["enum_k", "enum_j", "decompose"])
    def test_enumerative_route_over_guard(self, capsys, monkeypatch, route):
        monkeypatch.delenv("FIGURATE_SIZE_GUARD", raising=False)
        code, out, err = run(capsys, "triangle", "--pmax", "15", "--route", route)
        assert code == 2
        assert out == ""
        assert "size guard 14" in err and "FIGURATE_SIZE_GUARD" in err

    def test_env_raises_triangle_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("FIGURATE_SIZE_GUARD", "15")
        code, out, _ = run(capsys, "triangle", "--pmax", "15", "--route", "enum_k", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1].split(",")[-2:] == ["32766", "1"]

    def test_closed_route_ignores_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("FIGURATE_SIZE_GUARD", raising=False)
        code, out, _ = run(capsys, "triangle", "--pmax", "15", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 15

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "triangle", "--pmax", "8")
        _, second, _ = run(capsys, "triangle", "--pmax", "8")
        assert first == second


class TestCoeff:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "coeff", "--p", "9", "--ell", "5")
        assert code == 0
        assert out.strip() == "186480"

    def test_all_routes(self, capsys):
        code, out, _ = run(capsys, "coeff", "--p", "5", "--ell", "2", "--route", "all")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.split()[1] == "150" for line in lines)

    def test_repeatable_route_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "coeff", "--p", "6", "--ell", "3",
            "--route", "closed", "--route", "alternating",
        )
        assert code == 0
        assert [line.split() for line in out.splitlines()] == [
            ["closed", "540"],
            ["alternating", "540"],
        ]

    def test_enumerative_route_respects_guard(self, capsys):
        code, _, err = run(capsys, "coeff", "--p", "20", "--ell", "3", "--route", "enum_k")
        assert code == 2
        assert "size guard" in err

    def test_guard_override(self, capsys):
        code, out, _ = run(
            capsys,
            "coeff", "--p", "15", "--ell", "14", "--route", "enum_j", "--size-guard", "15",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "coeff", "--p", "5", "--ell", "5")
        assert code == 2
        assert "error" in err


class TestCertify:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "certify", "--p", "5", "--ell", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p=5 ell=2"
        value_lines = [l for l in lines[1:-1]]
        assert len(value_lines) == 7
        assert all(l.split()[1] == "150" for l in value_lines)
        assert lines[-1] == "agree: yes"

    def test_size_guard_skips(self, capsys):
        code, out, _ = run(capsys, "certify", "--p", "16", "--ell", "3")
        assert code == 0
        assert out.count("skipped (size guard 14)") == 3
        assert out.splitlines()[-1] == "agree: yes"

    def test_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("FIGURATE_SIZE_GUARD", "3")
        code, out, _ = run(capsys, "certify", "--p", "4", "--ell", "1")
        assert code == 0
        assert out.count("skipped (size guard 3)") == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FIGURATE_SIZE_GUARD", "3")
        code, out, _ = run(capsys, "certify", "--p", "4", "--ell", "1", "--size-guard", "5")
        assert code == 0
        assert "skipped" not in out

    def test_invalid_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("FIGURATE_SIZE_GUARD", "lots")
        code, _, err = run(capsys, "certify", "--p", "4", "--ell", "1")
        assert code == 2
        assert "FIGURATE_SIZE_GUARD" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_env_guard(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FIGURATE_SIZE_GUARD", value)
        code, out, err = run(capsys, "certify", "--p", "4", "--ell", "1")
        assert (code, out) == (2, "")
        assert f"FIGURATE_SIZE_GUARD must be positive, got {value}" in err


class TestTuples:
    def test_k_stream(self, capsys):
        code, out, _ = run(capsys, "tuples", "--p", "5", "--ell", "2")
        assert code == 0
        assert out.splitlines() == [
            "0,0,2", "0,2,0", "2,0,0", "0,1,0,1", "1,0,0,1", "1,0,1,0",
        ]

    def test_j_stream(self, capsys):
        code, out, _ = run(capsys, "tuples", "--kind", "j", "--p", "5", "--ell", "0")
        assert code == 0
        assert out.splitlines() == ["1,1,1,1"]

    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys, "tuples", "--kind", "k", "--p", "9", "--ell", "5", "--count-only"
        )
        assert code == 0
        assert out.strip() == "56"

    def test_compositions(self, capsys):
        code, out, _ = run(
            capsys,
            "tuples", "--kind", "comp",
            "--total", "7", "--parts", "2", "--min-part", "2",
        )
        assert code == 0
        assert out.splitlines() == ["2,5", "3,4", "4,3", "5,2"]

    def test_long_stream_holds_no_per_value_table(self, monkeypatch):
        # 50,000 lines into a discarding stdout: the stream holds O(parts)
        # however large total is; a str per value written would be ~8 MB.
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["tuples", "--kind", "comp", "--total", "50001", "--parts", "2"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 1_000_000

    def test_infeasible_composition_count(self, capsys):
        code, out, _ = run(
            capsys, "tuples", "--kind", "comp", "--total", "1", "--parts", str(2**61),
            "--count-only",
        )
        assert (code, out) == (0, "0\n")

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "tuples", "--kind", "j")
        assert code == 2
        assert "--p" in err


class TestFermat:
    def test_plain_digit_for_digit(self, capsys):
        code, out, _ = run(capsys, "fermat", "--p", "5")
        assert code == 0
        cells = tuple(tuple(line.split()) for line in out.splitlines())
        assert cells == FERMAT_5_CELLS

    def test_inverse_plain(self, capsys):
        code, out, _ = run(capsys, "fermat", "--p", "5", "--inverse")
        assert code == 0
        cells = tuple(tuple(line.split()) for line in out.splitlines())
        assert cells == INVERSE_5_CELLS

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "fermat", "--p", "4", "--format", "json")
        doc = json.loads(out)
        assert doc["matrix"] == "fermat"
        got = [[Fraction(c) for c in row] for row in doc["entries"]]
        assert got[3] == [Fraction(1, 4), Fraction(11, 24), Fraction(1, 4), Fraction(1, 24)]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "fermat", "--p", "3", "--inverse", "--format", "csv")
        assert out.splitlines() == ["1,0,0", "-1,2,0", "1,-6,6"]


class TestPowersum:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "powersum", "--p", "5", "--n", "10")
        assert code == 0
        assert out.strip() == "220825"

    def test_formula_selection(self, capsys):
        for formula in ("eq5", "stir", "euler", "alt3", "faulhaber"):
            code, out, _ = run(
                capsys, "powersum", "--p", "8", "--n", "10", "--formula", formula
            )
            assert code == 0
            assert out.strip() == "167731333"

    def test_power_formula(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--p", "5", "--n", "2", "--formula", "ml1-power"
        )
        assert out.strip() == "32"

    def test_symbolic_plain(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--p", "1", "--symbolic", "--formula", "eq5"
        )
        assert code == 0
        assert out.strip() == "1/2 n^2 + 1/2 n"

    def test_symbolic_json(self, capsys):
        code, out, _ = run(
            capsys,
            "powersum", "--p", "3", "--symbolic", "--formula", "faulhaber",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["polynomial"] == ["0", "0", "1/4", "1/2", "1/4"]

    def test_symbolic_brute_rejected(self, capsys):
        code, _, err = run(capsys, "powersum", "--p", "3", "--symbolic")
        assert code == 2
        assert "symbolic" in err

    def test_value_json(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--p", "8", "--n", "10", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["value"] == "167731333"
        assert int(doc["value"]) == 167731333

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "powersum", "--p", "3")
        assert code == 2

    def test_power_formula_at_zero(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--p", "3", "--n", "0", "--formula", "ml1-power"
        )
        assert (code, out) == (0, "0\n")
        code, out, err = run(
            capsys, "powersum", "--p", "3", "--n", "-1", "--formula", "ml1-power"
        )
        assert (code, out) == (2, "")
        assert "nonnegative" in err



def _joined_aligned(table):
    """The table right-aligned column by column and joined into one
    string, as the CLI formatted it before it printed line by line."""
    widths = []
    for row in table:
        for i, cell in enumerate(row):
            if i >= len(widths):
                widths.append(len(cell))
            else:
                widths[i] = max(widths[i], len(cell))
    return "\n".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    )


def _expected_outputs(command, size, option):
    """argv and the stdout of each --format for one table result, built
    from the library: json is json.dumps of the whole object, plain and
    csv are whole joined strings."""
    from figurate.coefficients import build_triangle
    from figurate.exact import format_polynomial, format_rational
    from figurate.fermat import build_fermat, inverse_closed

    size_flag = {"triangle": "--pmax", "fermat": "--p", "powersum": "--p"}[command]
    argv = [command, size_flag, str(size)]
    if command == "triangle" and option is None:
        rows = [[str(v) for v in row] for row in build_triangle(size, "closed")]
        header = ["p\\ell"] + [str(ell) for ell in range(size)]
        plain = _joined_aligned([header] + [[str(p + 1)] + row for p, row in enumerate(rows)])
        obj = {"triangle": "coefficients", "route": "closed", "pmax": size, "rows": rows}
    elif command == "triangle":
        argv += ["--family", option]
        triangle = combinatorics.number_triangle(option, size)
        rows = [[str(v) for v in row] for row in triangle.rows]
        first = triangle.first_row
        plain = _joined_aligned([[f"{option[0]}={first + i}"] + r for i, r in enumerate(rows)])
        obj = {"triangle": option, "first_row": first, "max_row": size, "rows": rows}
    elif command == "fermat":
        argv += ["--inverse"] if option else []
        matrix = inverse_closed(size) if option else build_fermat(size)
        rows = [[format_rational(x) for x in row] for row in matrix.rows]
        plain = _joined_aligned(rows)
        obj = {"matrix": "inverse" if option else "fermat", "p": size, "entries": rows}
    else:
        argv += ["--symbolic", "--formula", option]
        poly = powersum.expand_symbolic(size, FORMULA_FLAGS[option])
        strings = [format_rational(c) for c in poly.coefficients]
        rows = [strings]
        plain = format_polynomial(poly)
        obj = {"p": size, "formula": option, "polynomial": strings}
    return argv, {
        "plain": plain + "\n",
        "csv": "\n".join(",".join(row) for row in rows) + "\n",
        "json": json.dumps(obj, sort_keys=True) + "\n",
    }


TABLE_RESULTS = [
    *(("triangle", n, None) for n in (1, 2, 40)),
    *(("triangle", n, family) for family in FAMILIES for n in (1, 2, 40)),
    *(("fermat", p, inverse) for p in (1, 40) for inverse in (False, True)),
    *(("powersum", 40, flag) for flag in FORMULA_FLAGS if flag != "brute"),
]


class TestTableOutput:
    """Every --format of the table results prints exactly the text of
    whole-string formatting: json.dumps of the whole object, and plain
    and csv lines joined into one string."""

    @pytest.mark.parametrize(
        "command,size,option", TABLE_RESULTS, ids=lambda v: str(v).lower()
    )
    def test_formats_equal_whole_string_text(self, capsys, command, size, option):
        argv, expected = _expected_outputs(command, size, option)
        for fmt, text in expected.items():
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert out == text, fmt


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit"
)
class TestRefusalBeforeOutput:
    """A value the interpreter refuses to convert to a string is refused
    before the first byte of output, whatever the format."""

    @pytest.mark.parametrize(
        "argv",
        [
            "triangle --pmax 320",
            "triangle --pmax 320 --format csv",
            "triangle --pmax 320 --format json",
            "triangle --pmax 320 --family stirling1 --format csv",
            "fermat --p 320 --format csv",
            "fermat --p 320 --format json",
            "fermat --p 320 --inverse",
        ],
    )
    def test_over_digit_limit_prints_nothing(self, capsys, argv):
        # 320! has 665 digits; the last row of each table holds such a value.
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, *argv.split())
        finally:
            sys.set_int_max_str_digits(previous)
        assert code == 2
        assert out == ""
        assert "Exceeds the limit (640 digits)" in err


class TestFaulhaber:
    def test_output(self, capsys):
        code, out, _ = run(capsys, "faulhaber", "--p", "5")
        assert code == 0
        assert out.strip() == "-1/3 4/3"

    def test_cube(self, capsys):
        code, out, _ = run(capsys, "faulhaber", "--p", "3")
        assert out.strip() == "1"

    def test_small_p_rejected(self, capsys):
        code, _, err = run(capsys, "faulhaber", "--p", "1")
        assert code == 2

    def test_failed_derivation_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(powersum, "_brute_sums", lambda p, count: [n**p for n in range(count)])
        powersum._faulhaber_form.cache_clear()
        powersum.faulhaber_coefficients.cache_clear()
        try:
            code, out, err = run(capsys, "faulhaber", "--p", "6")
        finally:
            powersum._faulhaber_form.cache_clear()
            powersum.faulhaber_coefficients.cache_clear()
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")
        assert err.count("internal error") == 1


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, err = run(capsys, "verify", "--pmax", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("figurate verify")
        assert lines[-1].startswith("summary:")
        assert "0 failed" in lines[-1]
        assert "completed" in err

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fermat", "--pmax", "5")
        assert code == 0
        assert all(
            line.startswith("[pass] fermat:")
            for line in out.splitlines()
            if line.startswith("[")
        )
        assert "reference matrices p=5" in out

    def test_guard_produces_skips(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "coeff", "--pmax", "5", "--size-guard", "3",
        )
        assert code == 0
        assert "[skipped]" in out
        assert "0 failed" in out.splitlines()[-1]

    def test_stdout_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "enumeration", "--pmax", "6")
        _, second, _ = run(capsys, "verify", "--suite", "enumeration", "--pmax", "6")
        assert first == second


class TestTupleLengthLimit:
    @staticmethod
    def tuples(capsys, kind, n):
        if kind == "comp":
            family = ("--total", str(2 * n), "--parts", str(n), "--min-part", "2")
        else:
            family = ("--p", str(n + 1), "--ell", "1")
        return run(capsys, "tuples", "--kind", kind, *family)

    @pytest.mark.parametrize("kind", ["k", "j", "comp"])
    def test_boundary_length_streams(self, capsys, kind):
        n = MAX_TUPLE_LENGTH
        code, out, _ = self.tuples(capsys, kind, n)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == (1 if kind == "comp" else n)
        assert all(len(line.split(",")) == n for line in lines)

    @pytest.mark.parametrize("kind", ["k", "j", "comp"])
    def test_first_refused_length_is_usage_error(self, capsys, kind):
        n = MAX_TUPLE_LENGTH
        code, out, err = self.tuples(capsys, kind, n + 1)
        assert (code, out) == (2, "")
        assert f"limit of {n}" in err

    def test_enumerative_route_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "coeff", "--p", "1000", "--ell", "1", "--route", "enum_k",
            "--size-guard", "2000",
        )
        assert (code, out) == (2, "")
        assert f"limit of {MAX_TUPLE_LENGTH}" in err


def _choices(command, dest):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


class TestRegistries:
    """The CLI's choices come from the library's tables, not lists of its own."""

    def test_route_choices(self):
        assert tuple(_choices("coeff", "route")) == ROUTES + ("all",)
        assert tuple(_choices("triangle", "route")) == ROUTES

    def test_family_choices(self):
        assert tuple(_choices("triangle", "family")) == FAMILIES

    def test_formula_choices(self):
        assert tuple(_choices("powersum", "formula")) == tuple(FORMULA_FLAGS)

    def test_every_choice_list(self):
        # Walks every subcommand: a registry-backed option reads its
        # registry, and no other option has a choice list.
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        found = {
            (command, action.dest): tuple(action.choices)
            for command, subparser in sub.choices.items()
            for action in subparser._actions
            if action.choices is not None
        }
        formats = ("plain", "csv", "json")
        assert found == {
            ("coeff", "route"): ROUTES + ("all",),
            ("triangle", "route"): ROUTES,
            ("triangle", "family"): FAMILIES,
            ("triangle", "format"): formats,
            ("tuples", "kind"): ("k", "j", "comp"),
            ("fermat", "format"): formats,
            ("powersum", "formula"): tuple(FORMULA_FLAGS),
            ("powersum", "format"): formats,
            ("verify", "suite"): SUITES + ("all",),
        }


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_unknown_route_choice(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["coeff", "--p", "3", "--ell", "1", "--route", "magic"])
        assert err.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


ROOT = Path(__file__).resolve().parents[1]


def fresh_env(**env):
    """The environment of a fresh interpreter that imports this checkout's
    figurate, without FIGURATE_SIZE_GUARD."""
    src = str(Path(figurate.__file__).resolve().parents[1])
    environ = {k: v for k, v in os.environ.items() if k != "FIGURATE_SIZE_GUARD"}
    environ.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", **env)
    return environ


def run_fresh(argv, **env):
    """Exit code, stdout bytes and stderr text of argv in a fresh
    interpreter that imports this checkout's figurate."""
    done = subprocess.run(
        [sys.executable, *argv], env=fresh_env(**env), capture_output=True, timeout=120
    )
    return done.returncode, done.stdout, done.stderr.decode()


class TestReproducibleStdout:
    """Stdout is the same bytes whatever the interpreter's hash seed."""

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --pmax 6",
            "coeff --p 7 --ell 3 --route all",
            "triangle --pmax 8 --format json",
            "certify --p 9 --ell 4",
        ],
    )
    def test_hash_seed_does_not_change_stdout(self, argv):
        cli = ["-m", "figurate.cli", *argv.split()]
        first = run_fresh(cli, PYTHONHASHSEED="0")
        second = run_fresh(cli, PYTHONHASHSEED="4242")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


class TestClosedPipe:
    """A reader that closes stdout early ends the run with exit 141 and
    no traceback, as `figurate ... | head` does."""

    @pytest.mark.parametrize("argv", ["triangle --pmax 300", "tuples --p 20 --ell 10"])
    def test_exit_141_without_traceback(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "figurate.cli", *argv.split()],
            env=fresh_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert head and err == b""


def _limit_address_space(mb):
    """In the child only: mb MB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))


class TestResourceExhaustion:
    """A run that exhausts memory or the stack exits 3 with one stderr
    line naming the resource and no traceback: exit 1 means a failed
    check."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    # At 302 MB the interpreter's shutdown printed MemoryError lines after
    # main's one line while the stored rows were still held; 300 MB did not.
    @pytest.mark.parametrize(
        "argv, mb",
        [
            (argv, mb)
            for mb in (300, 302)
            for argv in (
                "triangle --family stirling2 --pmax 3000 --format csv",
                "fermat --p 1500 --format csv",
            )
        ],
        ids=["triangle", "fermat", "triangle-302MB", "fermat-302MB"],
    )
    def test_out_of_memory_exits_3(self, argv, mb):
        done = subprocess.run(
            [sys.executable, "-m", "figurate.cli", *argv.split()],
            env=fresh_env(),
            capture_output=True,
            timeout=120,
            preexec_fn=functools.partial(_limit_address_space, mb),
        )
        assert done.returncode == 3
        assert done.stderr.decode() == "internal error: out of memory\n"

    def test_recursion_limit_exits_3(self, capsys, monkeypatch):
        def deep(args):
            return deep(args)

        monkeypatch.setattr(cli, "cmd_faulhaber", deep)
        code, out, err = run(capsys, "faulhaber", "--p", "3")
        assert code == 3
        assert out == ""
        assert err == "internal error: out of stack (the recursion limit)\n"



#: Runs the command in argv[1:] and prints its exit code, its peak RSS in
#: KiB and the sha256 of its stdout. The command is started from this
#: small process: started from the test process itself, its ru_maxrss
#: would include the test process's high-water mark, which Linux carries
#: across exec.
_PEAK_AND_DIGEST = """
import hashlib, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(chunk)
proc.stdout.close()
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, digest.hexdigest())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
class TestStreamedMemory:
    """A large table is printed line by line: peak RSS in a fresh process
    stays well under the several copies of its text that whole-string
    formatting holds (about 28.9 MB of plain text at pmax 300)."""

    @pytest.mark.parametrize(
        "command,size,option,fmt,limit_mb",
        [
            ("triangle", 300, None, "plain", 55),
            ("triangle", 300, None, "csv", 55),
            ("triangle", 300, None, "json", 55),
            ("triangle", 300, "eulerian2", "plain", 55),
            ("fermat", 300, False, "json", 80),
        ],
        ids=["triangle-plain", "triangle-csv", "triangle-json", "eulerian2-plain", "fermat-json"],
    )
    def test_peak_rss(self, command, size, option, fmt, limit_mb):
        argv, expected = _expected_outputs(command, size, option)
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_AND_DIGEST, sys.executable, "-m", "figurate.cli",
             *argv, "--format", fmt],
            env=fresh_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        code, maxrss_kib, digest = done.stdout.split()
        assert code == "0"
        assert digest == hashlib.sha256(expected[fmt].encode()).hexdigest()
        assert int(maxrss_kib) / 1024 < limit_mb


#: Runs cli.main on the arguments after the first, then prints to stderr
#: how many OR tables surjection_brute's cache holds and, on the last
#: line, which of the modules named in the first argument are loaded.
_LOADED_AFTER_MAIN = """
import sys
from figurate import cli
code = cli.main(sys.argv[2:])
cache = getattr(sys.modules.get("figurate.combinatorics"), "_or_table", None)
sys.stderr.write(f"or-tables {cache.cache_info().currsize if cache else 0}\\n")
sys.stderr.write(" ".join(m for m in sys.argv[1].split() if m in sys.modules) + "\\n")
sys.exit(code)
"""


class TestImportHygiene:
    """A subcommand imports only what it runs. The interpreter runs with
    -S, so no site hook preloads a module the library should not load."""

    HEAVY = "dataclasses inspect typing fractions decimal json figurate.fermat figurate.exact"

    def probe(self, argv, watched):
        """(the watched modules loaded, the OR tables built) after argv."""
        code, _, err = run_fresh(["-S", "-c", _LOADED_AFTER_MAIN, watched, *argv.split()])
        assert code == 0, err
        *_, tables, modules = err.splitlines()
        return modules.split(), int(tables.removeprefix("or-tables "))

    def loaded(self, argv, watched):
        return self.probe(argv, watched)[0]

    @pytest.mark.parametrize(
        "argv",
        [
            "coeff --p 14 --ell 7 --route enum_k",
            "certify --p 12 --ell 6",
            "tuples --kind k --p 14 --ell 7 --count-only",
        ],
    )
    def test_integer_subcommands_load_no_heavy_module(self, argv):
        # Nor do they build surjection_brute's OR tables, which nothing
        # builds at import.
        assert self.probe(argv, self.HEAVY) == ([], 0)

    def test_coeff_suite_builds_or_tables_without_fractions(self):
        # p <= 3 asks surjection_brute for n <= 3 and m <= 5: the tables for
        # the value bits a = 1, 2, 4, and a = 0 for the one empty prefix.
        assert self.probe("verify --pmax 3 --suite coeff", "fractions") == ([], 4)

    def test_faulhaber_evaluation_loads_no_fractions(self):
        argv = "powersum --p 6 --n 10 --formula faulhaber"
        assert self.loaded(argv, "fractions figurate.exact") == []

    def test_enumeration_suite_leaves_fermat_unloaded(self):
        assert self.loaded("verify --pmax 3 --suite enumeration", "figurate.fermat") == []

    def test_probe_reports_loaded_modules(self):
        loaded = self.loaded("fermat --p 3", self.HEAVY)
        assert {"fractions", "figurate.fermat", "figurate.exact"} <= set(loaded)


class TestBenchTracerBindings:
    """bench/trace_cli.py binds library names at every site; a deleted or
    renamed one makes its Tracer.install() raise AttributeError."""

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --pmax 4",
            "fermat --p 5 --format json",
            "powersum --p 6 --symbolic --formula euler",
            "triangle --pmax 6 --family eulerian1",
            "tuples --kind comp --total 6 --parts 3 --count-only",
            "faulhaber --p 6",
        ],
    )
    def test_traced_run_matches_plain_cli(self, argv):
        code, out, err = run_fresh([str(ROOT / "bench" / "trace_cli.py"), *argv.split()])
        assert code == 0, err
        assert out == run_fresh(["-m", "figurate.cli", *argv.split()])[1]
        assert err.splitlines()[-1].startswith("figurate-bench-trace ")
