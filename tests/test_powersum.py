"""Power-sum formulas against the brute-force oracle, pointwise and symbolic."""

from fractions import Fraction

import pytest

from figurate import powersum
from figurate.exact import Polynomial
from figurate.powersum import (
    FORMULA_FLAGS,
    FORMULA_TAGS,
    TERM_TAGS,
    Representation,
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

F = Fraction


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
        assert representation("eq5", 5).terms == (
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
        terms = representation("alt1", 8).terms
        assert [c for c, _, _ in terms] == [1, 254, 5796, 40824, 126000, 191520, 141120, 40320]
        assert [shift for _, _, shift in terms] == [0, -1, -2, -3, -4, -5, -6, -7]
        assert [dim for _, dim, _ in terms] == [2, 3, 4, 5, 6, 7, 8, 9]

    def test_at_one(self):
        for p in range(1, 11):
            assert sum_stirling(1, p) == 1

    def test_value(self):
        assert sum_stirling(10, 8) == oracle(10, 8) == 167731333


class TestEulerianExpansion:
    def test_term_structure_p8(self):
        terms = representation("alt2", 8).terms
        assert [c for c, _, _ in terms] == [1, 247, 4293, 15619, 15619, 4293, 247, 1]
        assert all(dim == 9 for _, dim, _ in terms)

    def test_palindromic_coefficients(self):
        for p in range(1, 13):
            coeffs = [c for c, _, _ in representation("alt2", p).terms]
            assert coeffs == coeffs[::-1]

    def test_at_one(self):
        for p in range(1, 11):
            assert sum_eulerian(1, p) == 1

    def test_value(self):
        assert sum_eulerian(10, 8) == oracle(10, 8)


class TestVariantExpansion:
    def test_term_structure_p8(self):
        terms = representation("alt3", 8).terms
        assert terms[0] == (1, 1, 0)
        assert terms[-1] == (40320, 9, -8)
        assert [c for c, _, _ in terms] == [
            1, 255, 6050, 46620, 166824, 317520, 332640, 181440, 40320,
        ]

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

    @pytest.mark.parametrize("p", range(2, 9))
    def test_wrong_sample_is_refused(self, p, monkeypatch):
        # The derivation reads sum_brute at n = 0..p+1; one sample off by
        # one at any of them must leave a remainder, not a wrong answer.
        for wrong in range(p + 2):
            monkeypatch.setattr(
                powersum, "sum_brute", lambda n, q, wrong=wrong: oracle(n, q) + (n == wrong)
            )
            with pytest.raises(RuntimeError):
                faulhaber_coefficients.__wrapped__(p)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError):
            faulhaber_coefficients(1)
        with pytest.raises(ValueError):
            faulhaber_eval(3, 1)


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
            assert expand_symbolic(p, "power_ml1") == Polynomial.monomial(p)

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
        assert isinstance(rep, Representation)
        assert rep.evaluate(10) == oracle(10, 5)
