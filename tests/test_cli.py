"""CLI behaviours: output formats, determinism, exit codes, size guard."""

import argparse
import json
from fractions import Fraction

import pytest

from figurate import powersum
from figurate.cli import build_parser, main
from figurate.coefficients import ROUTES
from figurate.combinatorics import FAMILIES
from figurate.enumeration import MAX_TUPLE_LENGTH
from figurate.powersum import FORMULA_FLAGS

TRIANGLE_9 = (
    (1,),
    (2, 1),
    (6, 6, 1),
    (24, 36, 14, 1),
    (120, 240, 150, 30, 1),
    (720, 1800, 1560, 540, 62, 1),
    (5040, 15120, 16800, 8400, 1806, 126, 1),
    (40320, 141120, 191520, 126000, 40824, 5796, 254, 1),
    (362880, 1451520, 2328480, 1905120, 834120, 186480, 18150, 510, 1),
)

FERMAT_5_CELLS = (
    ("1", "0", "0", "0", "0"),
    ("1/2", "1/2", "0", "0", "0"),
    ("1/3", "1/2", "1/6", "0", "0"),
    ("1/4", "11/24", "1/4", "1/24", "0"),
    ("1/5", "5/12", "7/24", "1/12", "1/120"),
)

INVERSE_5_CELLS = (
    ("1", "0", "0", "0", "0"),
    ("-1", "2", "0", "0", "0"),
    ("1", "-6", "6", "0", "0"),
    ("-1", "14", "-36", "24", "0"),
    ("1", "-30", "150", "-240", "120"),
)


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
        monkeypatch.setattr(powersum, "sum_brute", lambda n, p: n**p)
        powersum.faulhaber_coefficients.cache_clear()
        try:
            code, out, err = run(capsys, "faulhaber", "--p", "6")
        finally:
            powersum.faulhaber_coefficients.cache_clear()
        assert code == 3
        assert out == ""
        assert "internal error" in err


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
