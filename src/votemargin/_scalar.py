"""Scalar argument checks and the scalar formulas the closed-form bounds share.

This module imports the standard library alone, so ``bounds``,
``harness.config`` and the CLI load without numpy.  The checks still accept
numpy scalars: a numpy scalar exists only once numpy is loaded, so they read
numpy from ``sys.modules`` instead of importing it.
"""

from __future__ import annotations

import math
import sys

__all__ = ["PreconditionError"]


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.integer)


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy int or float; a bool is not one."""
    if isinstance(value, (int, float)):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, (np.integer, np.floating))


def _check_count(value, name: str, lo: int = 1, hi: int | None = None) -> int:
    """``value`` as an int, after checking it is an integer in [lo, hi].

    A float, even an integral one, NaN, ±inf and a bool are refused, so a
    count is never silently truncated or read from a truth value; so is an
    integer no float can hold, since the formulas read counts as floats.
    An exact ``int`` is recognised by one type comparison.
    """
    if (
        not (type(value) is int or _is_integer(value))
        or value < lo
        or (hi is not None and value > hi)
    ):
        if hi is not None:
            rule = f"an integer in [{lo}, {hi}]"
        elif lo == 1:
            rule = "a positive integer"
        else:
            rule = f"an integer >= {lo}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} has {len(str(value))} digits, too many for a float") from None
    return int(value)


def _check_real(value, name: str, lo, hi, lo_open: bool = False, hi_open: bool = False) -> float:
    """``value`` as a float, after checking it is a finite real number in range.

    A Python or numpy int or float passes if it lies in the interval from lo
    to hi, which holds each end unless ``lo_open`` or ``hi_open`` says not.
    A bool, str, complex, Fraction, Decimal or array is refused, and so are
    NaN and ±inf.  The message prints lo and hi exactly as the caller passes
    them.  An exact ``float`` or ``int`` is recognised by type comparisons.
    """
    kind = type(value)
    real = kind is float or kind is int or _is_real(value)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int no float holds
        x = math.nan
    if not (
        math.isfinite(x)
        and (lo < x if lo_open else lo <= x)
        and (x < hi if hi_open else x <= hi)
    ):
        shown = value if real else repr(value)
        raise ValueError(
            f"{name} must lie in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}, "
            f"got {shown}"
        )
    return x


def _inverse_square(x: float) -> float:
    """x⁻², or inf where that overflows a float."""
    try:
        return x**-2
    except OverflowError:
        return math.inf


def _slope_threshold(theta_i: float) -> float:
    """Smallest N at which the slope and half-margin statements hold: 32·(2θ_i)⁻²,
    which is inf (no N qualifies) for θ_i below about 2.1e-154."""
    return 32.0 * _inverse_square(2.0 * theta_i)
