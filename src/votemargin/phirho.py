"""Piecewise comparison functions φ and ρ and their slope certificates.

φ and ρ interpolate, through the exact binomial margin law, between the
events "discretized margin above θ_i/2" and the zero/θ-margin events of the
source classifier.  Both are continuous, [0, 1]-valued, piecewise defined
with breakpoints at λ = 0 and λ = θ_i, and — crucially — have exponentially
small Lipschitz constants once N ≥ 32·(2θ_i)⁻².  This module evaluates
them, checks the sandwich inequalities that let them replace indicator
differences, and verifies the analytic slope bounds by chord slopes on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._scalar import _check_count, _check_real, _slope_threshold
from .core import C_THETA, _check_reals
from .discretize import (
    _check_N,
    _require_slope_ready,
    binom_margin_tail,
    binom_margin_tail_batch,
)

__all__ = [
    "PhiRhoParams",
    "phi",
    "rho",
    "phi_many",
    "rho_many",
    "branch_continuity_residuals",
    "phi_bound_check",
    "diff_replacement_check",
    "lipschitz_slope_check",
    "lip_const_bound",
    "LIPSCHITZ_REGIONS",
]

LIPSCHITZ_REGIONS = ("middle", "outer-phi", "outer-rho")


@dataclass(frozen=True)
class PhiRhoParams:
    """Margin threshold θ_i and discretization size N for one (φ, ρ) pair."""

    theta_i: float
    N: int

    def __post_init__(self):
        _check_real(self.theta_i, "theta_i", 0, C_THETA, lo_open=True)
        _check_N(self.N)

    @property
    def eta(self) -> float:
        """Threshold at which the discretized margin is compared: θ_i/2."""
        return self.theta_i / 2.0

    @property
    def lipschitz_threshold(self) -> float:
        """Smallest admissible N for the slope certificates: 32·(2θ_i)⁻²."""
        return _slope_threshold(self.theta_i)

    def tail(self, lam: float) -> float:
        """Pr[discretized margin > θ_i/2] given source margin λ."""
        return binom_margin_tail(self.N, lam, self.eta)

    @cached_property
    def tail_zero(self) -> float:
        """T(0), where φ leaves the tail for its taper; computed on first use."""
        return self.tail(0.0)

    @cached_property
    def tail_theta_i(self) -> float:
        """T(θ_i), where ρ's rise meets 1 − tail; computed on first use."""
        return self.tail(self.theta_i)

    def tail_many(self, lams) -> np.ndarray:
        return binom_margin_tail_batch(self.N, lams, self.eta)


def _phi_on(lams: np.ndarray, params: PhiRhoParams, tail_at) -> np.ndarray:
    """φ's branches, stated once: tail(λ) for λ ≤ 0, a linear taper from T(0)
    to 0 on (0, θ_i], 0 beyond; tail_at(mask) gives the tail at lams[mask]."""
    out = np.zeros(lams.shape, dtype=np.float64)
    left = lams <= 0.0
    if left.any():
        out[left] = tail_at(left)
    mid = (lams > 0.0) & (lams <= params.theta_i)
    if mid.any():
        out[mid] = (params.theta_i - lams[mid]) / params.theta_i * params.tail_zero
    return out


def _rho_on(lams: np.ndarray, params: PhiRhoParams, tail_at) -> np.ndarray:
    """ρ's branches, stated once: 0 for λ ≤ 0, a linear rise from 0 to
    1 − T(θ_i) on (0, θ_i], 1 − tail(λ) beyond; tail_at(mask) as in _phi_on."""
    out = np.zeros(lams.shape, dtype=np.float64)
    mid = (lams > 0.0) & (lams <= params.theta_i)
    if mid.any():
        out[mid] = lams[mid] / params.theta_i * (1.0 - params.tail_theta_i)
    right = lams > params.theta_i
    if right.any():
        out[right] = 1.0 - tail_at(right)
    return out


def phi(lam: float, params: PhiRhoParams) -> float:
    """Upper comparison function φ at one margin, with the exact scalar tail."""
    lam = _check_real(lam, "lambda", -C_THETA, C_THETA)
    return float(_phi_on(np.array([lam]), params, lambda mask: params.tail(lam))[0])


def rho(lam: float, params: PhiRhoParams) -> float:
    """Lower comparison function ρ at one margin, with the exact scalar tail."""
    lam = _check_real(lam, "lambda", -C_THETA, C_THETA)
    return float(_rho_on(np.array([lam]), params, lambda mask: params.tail(lam))[0])


def phi_many(lams, params: PhiRhoParams) -> np.ndarray:
    """Vectorized φ over an array of margins."""
    lams = _check_reals(lams, "lambda", -C_THETA, C_THETA)
    return _phi_on(lams, params, lambda mask: params.tail_many(lams[mask]))


def rho_many(lams, params: PhiRhoParams) -> np.ndarray:
    """Vectorized ρ over an array of margins."""
    lams = _check_reals(lams, "lambda", -C_THETA, C_THETA)
    return _rho_on(lams, params, lambda mask: params.tail_many(lams[mask]))


def branch_continuity_residuals(params: PhiRhoParams) -> np.ndarray:
    """Jumps |f(b) − f(b⁺)| of f = φ, ρ at the breakpoints b = 0 and θ_i.

    Order: φ at 0, φ at θ_i, ρ at 0, ρ at θ_i.  Each is measured on the exact
    scalar φ or ρ, with b⁺ the next float above b: every branch is closed on
    the right, so b lies on the left piece and b⁺ on the right one.  When b⁺
    leaves the margin range (θ_i = c_θ) the right piece is empty and the jump
    is 0.  A continuous glue leaves float noise.
    """
    jumps = []
    for fn in (phi, rho):
        for b in (0.0, params.theta_i):
            right = math.nextafter(b, math.inf)
            jumps.append(abs(fn(b, params) - fn(right, params)) if right <= C_THETA else 0.0)
    return np.array(jumps)


def phi_bound_check(params: PhiRhoParams, lambda_grid):
    """sup φ over a non-empty λ grid vs. the Hoeffding ceiling exp(−Nθ_i²/16).

    Returns (sup_phi, bound, holds).  Meaningful when N ≥ 32·(2θ_i)⁻²; below
    that the ceiling may genuinely fail and holds is reported honestly.
    """
    values = phi_many(lambda_grid, params)
    if not values.size:
        raise ValueError("lambda grid must be non-empty")
    sup_phi = float(values.max())
    bound = math.exp(-params.N * params.theta_i**2 / 16.0)
    return sup_phi, bound, sup_phi <= bound


def diff_replacement_check(params: PhiRhoParams, theta: float, lambda_grid):
    """Verify the sandwich 1{λ≤0}·tail ≤ φ ≤ 1{λ≤θ}·tail and its ρ mirror.

    The ρ mirror is 1{λ>θ}·(1−tail) ≤ ρ ≤ 1{λ>0}·(1−tail).  All four hold
    pointwise for any θ in (θ_i, 2θ_i].  Both sides read one shared tail
    value per grid point from ``tail_many`` (the vectorized ``bdtrc`` tail),
    and the tapers read the exact T(0) and T(θ_i), so the check tests φ's and
    ρ's branch algebra against the indicators, not the accuracy of the tail;
    violations are counted at tolerance 0.  Returns (violations, max_violation): the count of points of the
    non-empty λ grid where each inequality fails, in the order above, and
    the largest signed gap.
    """
    theta = _check_real(theta, "theta", params.theta_i, 2.0 * params.theta_i, lo_open=True)
    lams = _check_reals(lambda_grid, "lambda", -C_THETA, C_THETA)
    if not lams.size:
        raise ValueError("lambda grid must be non-empty")
    tails = params.tail_many(lams)  # one tail per grid point serves both sides
    phis = _phi_on(lams, params, lambda mask: tails[mask])
    rhos = _rho_on(lams, params, lambda mask: tails[mask])
    below_zero = lams <= 0.0
    below_theta = lams <= theta

    gaps = (
        np.where(below_zero, tails, 0.0) - phis,          # ≤ 0 required
        phis - np.where(below_theta, tails, 0.0),         # ≤ 0 required
        np.where(~below_theta, 1.0 - tails, 0.0) - rhos,  # ≤ 0 required
        rhos - np.where(~below_zero, 1.0 - tails, 0.0),   # ≤ 0 required
    )
    violations = tuple(int(np.count_nonzero(g > 0.0)) for g in gaps)
    max_violation = float(max(g.max() for g in gaps))
    return violations, max_violation


def _region_interval(params: PhiRhoParams, region: str):
    eps = params.theta_i * 1e-9  # moves the grid inside an open left end
    if region == "middle":
        return eps, params.theta_i
    if region == "outer-phi":
        return -C_THETA, 0.0
    if region == "outer-rho":
        return params.theta_i + eps, C_THETA
    raise ValueError(f"region must be one of {LIPSCHITZ_REGIONS}, got {region!r}")


def _max_abs_slope(fn, params: PhiRhoParams, lo: float, hi: float, num_points: int) -> float:
    """Max |chord slope| of fn(·, params) between neighbours of a grid on [lo, hi].

    One evaluation per grid point.  No chord straddles a breakpoint (a region
    end), so each chord slope is a derivative value (mean value theorem): the
    max is a lower estimate of the Lipschitz constant.  Repeated grid points
    are dropped; an empty interval has max slope 0.
    """
    if hi <= lo:
        return 0.0
    grid = np.linspace(lo, hi, num_points)
    if not np.diff(grid).all():  # an interval narrower than num_points floats
        grid = np.unique(grid)
    return float(np.abs(np.diff(fn(grid, params)) / np.diff(grid)).max(initial=0.0))


def lipschitz_slope_check(params: PhiRhoParams, region: str, num_points: int):
    """Measured max slope of φ/ρ in a region vs. the analytic ceiling.

    Regions: "middle" = (0, θ_i] where both functions are linear (ceiling
    exp(−(2θ_i)²N/32)/θ_i); "outer-phi" = [−c_θ, 0] and "outer-rho" =
    (θ_i, c_θ] where the binomial tail moves (ceiling N·θ_i·exp(−Nθ_i²/8)).
    Slopes are chords of a num_points grid.  Requires N ≥ 32·(2θ_i)⁻².
    Returns (max_slope, analytic_bound, holds).
    """
    num_points = _check_count(num_points, "num_points")
    _require_slope_ready(params.N, params.theta_i)
    lo, hi = _region_interval(params, region)
    N, t = params.N, params.theta_i
    if region == "middle":
        bound = math.exp(-((2.0 * t) ** 2) * N / 32.0) / t
        fns = (phi_many, rho_many)
    else:
        bound = N * t * math.exp(-N * t**2 / 8.0)
        fns = (phi_many if region == "outer-phi" else rho_many,)
    max_slope = max(_max_abs_slope(fn, params, lo, hi, num_points) for fn in fns)
    return max_slope, bound, max_slope <= bound


def lip_const_bound(params: PhiRhoParams, c: float) -> float:
    """Single-constant Lipschitz ceiling c·exp(−Nθ'²/c)·(θ'N + 1/θ'), θ' = 2θ_i."""
    c = _check_real(c, "c", 0, math.inf, lo_open=True, hi_open=True)
    tp = 2.0 * params.theta_i
    return c * math.exp(-params.N * tp**2 / c) * (tp * params.N + 1.0 / tp)
