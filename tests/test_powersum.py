"""Power-sum formulas against the brute-force oracle, pointwise and symbolic."""

import hashlib
import importlib.util
import itertools
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from figurate import cli, powersum
from figurate.exact import Polynomial
from figurate.fermat import inverse_closed
from figurate.powersum import (
    FORMULA_FLAGS,
    _divide_linear,
    _expand,
    FORMULA_TAGS,
    TERM_TAGS,
    evaluate_formula,
    expand_symbolic,
    faulhaber_coefficients,
    faulhaber_eval,
    figurate,
    power_via_ml1,
    representation,
    sum_brute,
    sum_eq5,
    sum_eulerian,
    sum_stirling,
    sum_variant,
)
from reference import SUM8_COEFFICIENTS

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


def oracle(n, p):
    """The independent accumulation everything is measured against."""
    return sum(r**p for r in range(1, n + 1))


class TestFigurate:
    def test_values(self):
        assert figurate(3, 2) == 6
        assert figurate(4, 3) == 20
        for k in range(1, 9):
            assert figurate(0, k) == 0

    def test_negative_arguments(self):
        # product of k consecutive integers ending before zero
        assert figurate(-2, 2) == 1
        assert figurate(-3, 3) == -1
        for k in range(1, 9):
            assert figurate(-k, k) == (-1) ** k

    def test_root_structure(self):
        for k in range(1, 11):
            for n in range(-20, 21):
                is_root = -(k - 1) <= n <= 0
                assert (figurate(n, k) == 0) == is_root

    def test_matches_binomial_for_positive_n(self):
        from math import comb

        for k in range(1, 9):
            for n in range(1, 30):
                assert figurate(n, k) == comb(n + k - 1, k)

    def test_telescoping(self):
        for k in range(2, 9):
            for n in range(0, 51):
                assert figurate(n, k) == sum(figurate(i, k - 1) for i in range(1, n + 1))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            figurate(3, 0)


class TestSumBrute:
    def test_values(self):
        assert sum_brute(0, 7) == 0
        assert sum_brute(1, 11) == 1
        assert sum_brute(4, 5) == 1 + 32 + 243 + 1024 == 1300

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sum_brute(-1, 2)
        with pytest.raises(ValueError):
            sum_brute(3, 0)


class TestPowerIdentity:
    def test_one(self):
        for p in range(1, 12):
            assert power_via_ml1(1, p) == 1

    def test_values(self):
        assert power_via_ml1(2, 5) == 32
        # row p = 2 of the coefficient triangle: 2, 1
        assert power_via_ml1(3, 2) == 2 * figurate(3, 2) - figurate(3, 1) == 9

    def test_matches_exponentiation(self):
        for p in range(1, 9):
            for n in range(1, 31):
                assert power_via_ml1(n, p) == n**p

    def test_bad_argument(self):
        # F_0^k = 0 for every k, so the expansion gives 0^p = 0 at n = 0.
        assert power_via_ml1(0, 3) == 0
        with pytest.raises(ValueError):
            power_via_ml1(-1, 3)


class TestEq5:
    def test_term_structure_p5(self):
        assert representation("eq5", 5) == (
            (120, 6, 0),
            (-240, 5, 0),
            (150, 4, 0),
            (-30, 3, 0),
            (1, 2, 0),
        )

    def test_alternating_sum_property(self):
        assert sum_eq5(1, 8) == 1

    def test_value(self):
        assert sum_eq5(10, 5) == oracle(10, 5) == 220825


class TestStirlingExpansion:
    def test_term_structure_p8(self):
        terms = representation("alt1", 8)
        assert tuple(c for c, _, _ in terms) == SUM8_COEFFICIENTS["alt1"]
        assert [shift for _, _, shift in terms] == [0, -1, -2, -3, -4, -5, -6, -7]
        assert [dim for _, dim, _ in terms] == [2, 3, 4, 5, 6, 7, 8, 9]

    def test_at_one(self):
        for p in range(1, 11):
            assert sum_stirling(1, p) == 1

    def test_value(self):
        assert sum_stirling(10, 8) == oracle(10, 8) == 167731333


class TestEulerianExpansion:
    def test_term_structure_p8(self):
        terms = representation("alt2", 8)
        assert tuple(c for c, _, _ in terms) == SUM8_COEFFICIENTS["alt2"]
        assert all(dim == 9 for _, dim, _ in terms)

    def test_palindromic_coefficients(self):
        for p in range(1, 13):
            coeffs = [c for c, _, _ in representation("alt2", p)]
            assert coeffs == coeffs[::-1]

    def test_at_one(self):
        for p in range(1, 11):
            assert sum_eulerian(1, p) == 1

    def test_value(self):
        assert sum_eulerian(10, 8) == oracle(10, 8)


class TestVariantExpansion:
    def test_term_structure_p8(self):
        terms = representation("alt3", 8)
        assert terms[0] == (1, 1, 0)
        assert terms[-1] == (40320, 9, -8)
        assert tuple(c for c, _, _ in terms) == SUM8_COEFFICIENTS["alt3"]

    def test_at_one(self):
        for p in range(1, 11):
            assert sum_variant(1, p) == 1

    def test_value(self):
        assert sum_variant(10, 8) == oracle(10, 8)


class TestPointwiseAgreement:
    def test_every_formula_matches_oracle(self):
        for p in range(1, 9):
            for n in range(0, 41):
                want = oracle(n, p)
                assert sum_eq5(n, p) == want
                assert sum_stirling(n, p) == want
                assert sum_eulerian(n, p) == want
                assert sum_variant(n, p) == want
                if p >= 2:
                    assert faulhaber_eval(n, p) == want


class TestFaulhaber:
    def test_cube_is_squared_triangle(self):
        assert faulhaber_coefficients(3) == (F(1),)
        assert faulhaber_eval(4, 3) == 100
        for n in range(0, 51):
            assert faulhaber_eval(n, 3) == figurate(n, 2) ** 2 == oracle(n, 3)

    def test_solved_lists(self):
        assert faulhaber_coefficients(5) == (F(-1, 3), F(4, 3))
        assert faulhaber_coefficients(4) == (F(-1, 5), F(6, 5))
        assert faulhaber_coefficients(2) == (F(1),)

    def test_reconstruction(self):
        for p in range(2, 12):
            for n in range(0, 51):
                assert faulhaber_eval(n, p) == oracle(n, p)

    def test_value(self):
        assert faulhaber_eval(10, 6) == oracle(10, 6) == 1978405

    def test_at_zero(self):
        for p in range(2, 10):
            assert faulhaber_eval(0, p) == 0

    def test_coefficients_nonzero(self):
        for p in range(2, 13):
            coeffs = faulhaber_coefficients(p)
            assert len(coeffs) == (p // 2 if p % 2 == 0 else (p - 1) // 2)
            assert all(c != 0 for c in coeffs)

    def test_rebuilds_sum_brute(self):
        for p in range(2, 41):
            coeffs = faulhaber_coefficients(p)
            assert len(coeffs) == p // 2
            for n in range(0, p + 4):
                t = n * (n + 1) // 2
                pre = n * (n + 1) * (2 * n + 1) // 6 if p % 2 == 0 else t * t
                assert pre * sum(c * t**j for j, c in enumerate(coeffs)) == sum_brute(n, p)

    @pytest.mark.parametrize("p", [*range(2, 9), 20, 21, 40, 41])
    def test_wrong_sample_is_refused(self, p, monkeypatch):
        # The derivation reads _brute_sums at n = 0..p+1; one sample off by
        # one at any of them must leave a remainder, not a wrong answer.
        for wrong in range(p + 2):
            monkeypatch.setattr(
                powersum,
                "_brute_sums",
                lambda q, count, wrong=wrong: [
                    oracle(n, q) + (n == wrong) for n in range(count)
                ],
            )
            with pytest.raises(RuntimeError):
                powersum._faulhaber_form.__wrapped__(p)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            faulhaber_coefficients(1)
        with pytest.raises(ValueError):
            faulhaber_eval(3, 1)

    def test_coefficients_read_the_integer_form(self):
        for p in range(2, 61):
            form, denom = powersum._faulhaber_form(p)
            assert denom == math.factorial(p + 1)
            scale = 4 if p % 2 else 6
            assert faulhaber_coefficients(p) == tuple(
                F(r * scale * 2**j, denom) for j, r in enumerate(form)
            )

    @pytest.mark.parametrize("p", [100, 201, 400])
    def test_eval_equals_sum_brute_far_past_40(self, p):
        for n in range(31):
            assert faulhaber_eval(n, p) == sum_brute(n, p), n

    def test_eval_equals_sum_brute(self):
        for p in range(2, 31):
            for n in range(201):
                assert faulhaber_eval(n, p) == sum_brute(n, p), (n, p)

    @pytest.mark.parametrize("p, n", [(3, 1), (6, 2), (11, 5)])
    def test_planted_non_integral_coefficient_is_refused(self, p, n, monkeypatch, capsys):
        # The last integer r_j one too large: the value at n is off by
        # w u^(1 + p % 2 + last) / L, which is no integer at these (p, n).
        # It goes through the one divmod, also after the true form was
        # read for this p.
        form, denom = powersum._faulhaber_form(p)
        assert faulhaber_eval(n, p) == sum_brute(n, p)
        planted = (form[:-1] + (form[-1] + 1,), denom)
        monkeypatch.setattr(powersum, "_faulhaber_form", lambda q: planted)
        with pytest.raises(RuntimeError, match="not integral"):
            faulhaber_eval(n, p)
        argv = ["powersum", "--p", str(p), "--n", str(n), "--formula", "faulhaber"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: ")
        monkeypatch.undo()
        assert faulhaber_eval(n, p) == sum_brute(n, p)


class TestSymbolic:
    def test_first_power(self):
        assert expand_symbolic(1, "eq5") == Polynomial((0, F(1, 2), F(1, 2)))

    def test_cube_faulhaber(self):
        assert expand_symbolic(3, "faulhaber") == Polynomial(
            (0, 0, F(1, 4), F(1, 2), F(1, 4))
        )

    def test_all_sum_tags_agree(self):
        for p in range(1, 11):
            tags = ["eq5", "alt1", "alt2", "alt3"] + (["faulhaber"] if p >= 2 else [])
            polys = [expand_symbolic(p, tag) for tag in tags]
            base = polys[0]
            assert all(q == base for q in polys)
            assert base.degree == p + 1
            assert base.coefficients[0] == 0

    def test_power_tag_expands_to_monomial(self):
        for p in range(1, 11):
            assert expand_symbolic(p, "power_ml1") == Polynomial((0,) * p + (1,))

    def test_expansion_evaluates_to_oracle(self):
        for p in (1, 4, 7):
            poly = expand_symbolic(p, "alt2")
            for n in range(0, 21):
                assert poly(n) == oracle(n, p)

    @pytest.mark.parametrize("p", [25, 40])
    @pytest.mark.parametrize("tag", TERM_TAGS)
    def test_large_orders_match_oracle(self, p, tag):
        # p + 2 values determine a polynomial of degree at most p + 1.
        poly = expand_symbolic(p, tag)
        if tag == "power_ml1":
            assert poly.degree == p
            expected = [n**p for n in range(p + 2)]
        else:
            assert poly.degree == p + 1
            expected = [sum_brute(n, p) for n in range(p + 2)]
        assert [poly(n) for n in range(p + 2)] == expected

    def test_brute_has_no_expansion(self):
        with pytest.raises(ValueError):
            expand_symbolic(4, "brute")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            expand_symbolic(4, "bernoulli")


class TestDispatch:
    def test_flag_table(self):
        assert set(FORMULA_FLAGS.values()) == set(FORMULA_TAGS)
        assert FORMULA_FLAGS["stir"] == "alt1"
        assert FORMULA_FLAGS["euler"] == "alt2"
        assert FORMULA_FLAGS["ml1-power"] == "power_ml1"

    def test_formula_tags(self):
        assert set(TERM_TAGS) < set(FORMULA_TAGS)
        for tag in FORMULA_TAGS:
            if tag == "faulhaber":
                continue
            assert evaluate_formula(tag, 6, 1) in (6, 21)  # 6^1 or S_1(6)

    def test_brute_dispatch(self):
        assert evaluate_formula("brute", 10, 3) == oracle(10, 3)

    def test_power_dispatch(self):
        assert evaluate_formula("power_ml1", 3, 4) == 81

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            evaluate_formula("magic", 3, 4)

    def test_representation_is_data(self):
        rep = representation("eq5", 5)
        assert isinstance(rep, tuple)
        assert all(len(term) == 3 and all(type(x) is int for x in term) for term in rep)
        assert sum(c * figurate(10 + shift, dim) for c, dim, shift in rep) == oracle(10, 5)


def lib_warm_pass():
    """Every powersum call the lib-warm benchmark makes: its set-up's
    cache fills (bench/libwarm.py), then its expand_symbolic and
    evaluate_formula operations (bench/workloads.py)."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    ops = [
        point
        for cls in workloads.LIB_WARM
        for point in cls.band
        if point[0] in ("expand_symbolic", "evaluate_formula")
    ]
    for op in ops:
        tag, p = (op[2], op[1]) if op[0] == "expand_symbolic" else (op[1], op[3])
        if tag == "faulhaber":
            faulhaber_coefficients(p)
        elif tag != "brute":
            representation(tag, p)
    for kind, *args in ops:
        (expand_symbolic if kind == "expand_symbolic" else evaluate_formula)(*args)


class TestCacheBound:
    CACHES = (representation, powersum._faulhaber_form, faulhaber_coefficients)

    def test_second_lib_warm_pass_adds_no_miss(self):
        # The caches are bounded, and lib-warm's keys (55 term lists and
        # 11 Faulhaber forms) still fit: a second pass finds every one.
        for cache in self.CACHES:
            cache.cache_clear()
        lib_warm_pass()
        first = [cache.cache_info() for cache in self.CACHES]
        assert [info.misses for info in first] == [55, 11, 11]
        lib_warm_pass()
        assert [cache.cache_info().misses for cache in self.CACHES] == [
            info.misses for info in first
        ]
        assert all(cache.cache_info().maxsize is not None for cache in self.CACHES)


class TestRecordedTerms:
    """Term tuples and the closed Fermat inverse equal the values the
    per-value builders gave: sha256 digests of their repr, recorded from
    code that read surjection_count, stirling2, eulerian_first and
    c_closed once per term or entry."""

    PS = (*range(1, 61), 511, 512, 513, 900)
    DIGESTS = {
        "eq5": "c5a41ef8e26cbd8a4e38f49fd6ae49aba6934b919b3196841d26586d87f9df3a",
        "alt1": "1a43fde32bceffff67f273eb9d3265fa1aa6769518b06c5cafe880ffe2ee25b5",
        "alt2": "49a4a512e829aeda29d727e83033491d8af9903c6033c830d956b755b1dee59a",
        "alt3": "15155fd40b6ecee99ebabe467239313dd5c8dd5233b10a934a05bbd2389837ed",
        "power_ml1": "45f3c8c6cd858d44bc89b35e7fbda3a290cb01ee78250d56c331fd2e8aaa987c",
    }
    INVERSE_DIGEST = "cc1ede5cb8a2f61359f1dcd5efb1dc366302de21bb061fb94fd0fa1e8ce27c5c"

    @staticmethod
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    @pytest.mark.parametrize("tag", TERM_TAGS)
    def test_representation(self, tag):
        assert self.digest(tuple(representation(tag, p) for p in self.PS)) == self.DIGESTS[tag]

    def test_inverse_closed(self):
        rows = tuple(inverse_closed(p).rows for p in range(1, 61))
        assert self.digest(rows) == self.INVERSE_DIGEST


class TestRecordedExpansions:
    """Expansions and Faulhaber coefficients equal the values recorded
    (sha256 of the repr) from the expander that rebuilt every term's
    rising product from scratch."""

    PS = (*range(1, 61), 100, 200)
    SUM_DIGEST = "bec11a05d10bbb185afc8cda8fc30132d6a323536958bdd30513258f8d4a31be"
    DIGESTS = {
        **dict.fromkeys(("eq5", "alt1", "alt2", "alt3"), SUM_DIGEST),
        "power_ml1": "5b96b412916dab3fb54e7a48995bfce8c8b88eee551acb006a81c5e12c1c472b",
    }
    FAULHABER_DIGEST = "7794af1d66b1b3ddc8b29aaf615415bff307e0ea4b86927c2e8dda1922ad7c08"

    @pytest.mark.parametrize("tag", TERM_TAGS)
    def test_expansion(self, tag):
        polys = tuple(as_polynomial(_expand(representation(tag, p))).coefficients for p in self.PS)
        assert TestRecordedTerms.digest(polys) == self.DIGESTS[tag]

    def test_faulhaber_coefficients(self):
        coeffs = tuple(faulhaber_coefficients(p) for p in range(2, 41))
        assert TestRecordedTerms.digest(coeffs) == self.FAULHABER_DIGEST


class TestRecordedFaulhaber:
    """The Faulhaber coefficients and the rebuilt Faulhaber polynomial equal
    the values (sha256 of the repr) recorded from the derivation by
    Fraction long division and the rebuild by Polynomial Horner steps."""

    COEFF_PS = (*range(41, 121), 200, 300, 400)
    COEFF_DIGEST = "423c658550497ab49befb3e13d91d876bfe408b32198fd4b41f9088c13bb741c"
    EXPANSION_PS = (*range(2, 61), 100, 200, 400)
    EXPANSION_DIGEST = "12cf997fe412898f39ae497c92a2380d217e5e2eea36d6a298da9b51ced1bd28"

    def test_coefficients(self):
        coeffs = tuple(faulhaber_coefficients(p) for p in self.COEFF_PS)
        assert all(type(c) is Fraction for row in coeffs for c in row)
        assert TestRecordedTerms.digest(coeffs) == self.COEFF_DIGEST

    def test_expansion(self):
        polys = tuple(expand_symbolic(p, "faulhaber").coefficients for p in self.EXPANSION_PS)
        assert all(type(c) is Fraction for poly in polys for c in poly)
        assert TestRecordedTerms.digest(polys) == self.EXPANSION_DIGEST


def as_polynomial(expansion):
    """The Polynomial of _expand's (integer coefficients, denominator)."""
    coeffs, denom = expansion
    return Polynomial(F(x, denom) for x in coeffs)


def newton_terms(p):
    """The Faulhaber interpolation's terms d_k F_(n+1-k)^k, k = 0..p+1,
    from the forward differences d_k of sum_brute at n = 0..p+1."""
    diffs = [sum_brute(n, p) for n in range(p + 2)]
    terms = []
    for k in range(p + 2):
        terms.append((diffs[0], k, 1 - k))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return terms


def expand_rebuilt(terms):
    """Each term c * F_(n+shift)^k rebuilt from scratch as c / k! times
    the Polynomial product of its k linear factors."""
    total = []
    for c, dim, shift in terms:
        product = Polynomial((F(c, math.factorial(dim)),))
        for a in range(shift, shift + dim):
            product = product * Polynomial((a, 1))
        total = list(map(sum, itertools.zip_longest(total, product.coefficients, fillvalue=0)))
    return Polynomial(total)


class TestProductWindow:
    def test_inexact_division_refused(self):
        product = [2, 3, 1]  # (n + 1)(n + 2)
        with pytest.raises(RuntimeError, match=re.escape("polynomial not divisible by (n + 3)")):
            _divide_linear(product, 3)

    def test_exact_division(self):
        product = [0, 2, 3, 1]  # n(n + 1)(n + 2)
        _divide_linear(product, 0)
        assert product == [2, 3, 1]
        _divide_linear(product, 2)
        assert product == [1, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_terms_match_rebuilt_products(self, seed):
        """alt2 terms slide, the Newton terms grow at the bottom; shuffled,
        the window also jumps to disjoint ranges and shrinks at either end."""
        terms = [*representation("alt2", 14), *newton_terms(14), *representation("eq5", 9)]
        random.Random(seed).shuffle(terms)
        assert as_polynomial(_expand(terms)) == expand_rebuilt(terms)


class TestExpansionEngine:
    """_expand takes Horner steps when the factor ranges nest and the
    sliding window otherwise; only the window divides."""

    NESTED = ("eq5", "alt1", "alt3", "power_ml1")

    @pytest.fixture
    def divisions(self, monkeypatch):
        """The number of _divide_linear calls so far, as a one-entry list."""
        calls = [0]
        divide = powersum._divide_linear

        def counted(coeffs, a):
            calls[0] += 1
            divide(coeffs, a)

        monkeypatch.setattr(powersum, "_divide_linear", counted)
        return calls

    @pytest.mark.parametrize("tag", NESTED)
    def test_nested_lists_divide_nothing(self, tag, divisions):
        # In either order: the window divides when eq5's ranges shrink
        # and when reversed alt1/alt3/power_ml1 lists do.
        for p in (*range(1, 61), 200):
            terms = representation(tag, p)
            assert _expand(terms[::-1]) == _expand(terms)
        assert divisions == [0]
        for p in (1, 2, 7, 16):
            terms = representation(tag, p)
            assert as_polynomial(_expand(terms)) == expand_rebuilt(terms)
        assert divisions == [0]

    def test_newton_terms_nest(self, divisions):
        # Ranges [1 - k, 1) for k = 0..p + 1, the empty range included.
        for p in (1, 5, 14):
            terms = newton_terms(p)
            assert as_polynomial(_expand(terms)) == expand_rebuilt(terms)
        assert divisions == [0]

    @pytest.mark.parametrize("p", [2, 7, 16])
    def test_alt2_takes_the_window(self, p, divisions):
        terms = representation("alt2", p)
        assert as_polynomial(_expand(terms)) == expand_rebuilt(terms)
        assert divisions[0] > 0

    @pytest.mark.parametrize("p", [4, 9, 16])
    def test_unnested_eq5_takes_the_window(self, p, divisions):
        # eq5's ranges are [0, dim); a middle term moved to [2, dim + 2)
        # holds neither the narrower range nor lies in the wider one.
        terms = list(representation("eq5", p))
        c, dim, _ = terms[p // 2]
        terms[p // 2] = (c, dim, 2)
        assert as_polynomial(_expand(terms)) == expand_rebuilt(terms)
        assert divisions[0] > 0
