"""The four result records: field access, derived properties, the one
default, and immutability."""

import pytest

from figurate.coefficients import RouteReport, certify
from figurate.combinatorics import NumberTriangle, number_triangle
from figurate.verify import CheckResult, VerifyReport


def test_number_triangle_fields():
    triangle = number_triangle("eulerian1", 3)
    assert triangle == NumberTriangle(((1,), (1, 1), (1, 4, 1)), 1)
    assert triangle.rows == ((1,), (1, 1), (1, 4, 1))
    assert triangle.first_row == 1


def test_route_report_fields_and_properties():
    report = RouteReport({"closed": 6, "enum_k": 6}, ("decompose",))
    assert report.values == {"closed": 6, "enum_k": 6}
    assert report.skipped == ("decompose",)
    assert report.agree is True
    assert report.value == 6
    assert RouteReport({"closed": 6, "enum_k": 5}, ()).agree is False
    assert certify(4, 1, 3) == RouteReport(
        {"closed": 36, "recurrence": 36, "eulerian2": 36, "alternating": 36},
        ("enum_k", "enum_j", "decompose"),
    )


def test_check_result_fields_and_default_detail():
    check = CheckResult("coeff", "row p=3", "pass")
    assert (check.suite, check.name, check.status, check.detail) == (
        "coeff",
        "row p=3",
        "pass",
        "",
    )
    assert CheckResult("coeff", "x", "skipped", "size guard 3").detail == "size guard 3"
    assert CheckResult("coeff", "x", "pass") == CheckResult("coeff", "x", "pass", "")


def test_verify_report_fields_and_counts():
    checks = (
        CheckResult("coeff", "a", "pass"),
        CheckResult("coeff", "b", "pass"),
        CheckResult("coeff", "c", "fail", "why"),
        CheckResult("coeff", "d", "skipped", "size guard 3"),
    )
    report = VerifyReport(("coeff",), checks, 0.5)
    assert (report.suites, report.checks, report.duration) == (("coeff",), checks, 0.5)
    assert (report.passed, report.failed, report.skipped) == (2, 1, 1)
    assert report.ok is False
    assert VerifyReport(("coeff",), checks[:2] + checks[3:], 0.0).ok is True


@pytest.mark.parametrize(
    "record, field",
    [
        (NumberTriangle(((1,),), 0), "first_row"),
        (RouteReport({"closed": 1}, ()), "skipped"),
        (CheckResult("coeff", "a", "pass"), "detail"),
        (VerifyReport(("coeff",), (), 0.0), "duration"),
    ],
    ids=["NumberTriangle", "RouteReport", "CheckResult", "VerifyReport"],
)
def test_records_are_immutable(record, field):
    # dataclasses.FrozenInstanceError is an AttributeError too.
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
