"""The scalar checks and ``format_value`` on every kind of value they meet.

They read numpy from ``sys.modules`` instead of importing it, and each must
give the result or message it gave when it imported numpy: a Python or numpy
integer is a count, a Python or numpy int or float is a real, and a bool,
numpy bool, Fraction, Decimal, complex, str or 0-d array is neither.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from votemargin._scalar import _check_count, _check_real
from votemargin.harness.reporting import format_value

BIG = 10**400

#: Stands for the refusal of a value that is not a number of the right kind.
REFUSED = object()

# (value, _check_count(value, "n"), _check_real(value, "x", 0, 1000),
#  format_value(value)); a str result of a check is its ValueError message.
CASES = [
    pytest.param(7, 7, 7.0, "7", id="int"),
    pytest.param(
        BIG, "n has 401 digits, too many for a float",
        f"x must lie in [0, 1000], got {BIG}", str(BIG), id="10**400",
    ),
    pytest.param(True, REFUSED, REFUSED, "true", id="bool"),
    pytest.param(np.bool_(False), REFUSED, REFUSED, "false", id="np.bool_"),
    pytest.param(np.int64(5), 5, 5.0, "5", id="np.int64"),
    pytest.param(np.uint8(200), 200, 200.0, "200", id="np.uint8"),
    pytest.param(
        np.float32(0.1), REFUSED, 0.10000000149011612, "0.10000000149011612",
        id="np.float32",
    ),
    pytest.param(np.float64(0.1), REFUSED, 0.1, "0.10000000000000001", id="np.float64"),
    pytest.param(Fraction(1, 2), REFUSED, REFUSED, "1/2", id="Fraction"),
    pytest.param(Decimal("0.5"), REFUSED, REFUSED, "0.5", id="Decimal"),
    pytest.param(0.5 + 0j, REFUSED, REFUSED, "(0.5+0j)", id="complex"),
    pytest.param("0.5", REFUSED, REFUSED, "0.5", id="str"),
    pytest.param(np.array(0.5), REFUSED, REFUSED, "0.5", id="0-d array"),
]


def _outcome(call):
    """(type, value) of what ``call()`` returns, or the ValueError's message."""
    try:
        result = call()
    except ValueError as exc:
        return str(exc)
    return type(result), result


@pytest.mark.parametrize("value, count, real, text", CASES)
def test_checks_and_format_value_keep_their_results(value, count, real, text):
    if count is REFUSED:
        count = f"n must be a positive integer, got {value!r}"
    if real is REFUSED:
        real = f"x must lie in [0, 1000], got {value!r}"
    expected = [c if isinstance(c, str) else (type(c), c) for c in (count, real)]
    assert [
        _outcome(lambda: _check_count(value, "n")),
        _outcome(lambda: _check_real(value, "x", 0, 1000)),
    ] == expected
    assert format_value(value) == text


def test_an_out_of_range_numpy_scalar_is_shown_as_given():
    with pytest.raises(ValueError) as info:
        _check_count(np.uint8(200), "n", 0, 10)
    assert str(info.value) == f"n must be an integer in [0, 10], got {np.uint8(200)!r}"
    with pytest.raises(ValueError, match=r"^x must lie in \(0, 1\), got 1.5$"):
        _check_real(np.float64(1.5), "x", 0, 1, lo_open=True, hi_open=True)
