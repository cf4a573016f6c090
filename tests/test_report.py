import json
import math

import pytest

from newton_circle.report import Check, VerificationReport


@pytest.mark.parametrize("lhs, rhs, tolerance, passed", [
    (1, 2, 0, True),
    (2, 2, 0, True),
    (3, 2, 0, False),
    (3, 2, 1, True),
    (1e-9, 0, 1e-10, False),
])
def test_check_derives_pass_from_its_numbers(lhs, rhs, tolerance, passed):
    c = Check("row", lhs, rhs, tolerance)
    assert c.passed is passed
    assert c.as_dict() == {"name": "row", "pass": passed, "lhs": float(lhs),
                           "rhs": float(rhs), "tolerance": float(tolerance)}


def test_check_stores_floats():
    c = Check("row", 3, 1)
    assert (type(c.lhs), type(c.rhs), type(c.tolerance)) == (float, float, float)
    assert (c.lhs, c.rhs, c.tolerance) == (3.0, 1.0, 0.0)
    assert json.dumps(c.as_dict()) == ('{"name": "row", "pass": false, "lhs": 3.0, '
                                       '"rhs": 1.0, "tolerance": 0.0}')


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_rejects_a_non_finite_field_when_built(field, bad):
    values = [0.0, 1.0, 0.0]
    values[field] = bad
    with pytest.raises(ValueError, match=r"^non-finite check field in row$"):
        Check("row", *values)


def test_report_exit_code_follows_the_rows():
    report = VerificationReport(command="c", version="v")
    report.add_check("a", 0, 1)
    assert report.exit_code == 0
    report.add_check("b", 2, 1, 0.5)
    assert [c.passed for c in report.checks] == [True, False]
    assert report.exit_code == 1
