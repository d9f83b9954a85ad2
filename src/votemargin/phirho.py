"""Piecewise comparison functions φ and ρ and their slope certificates.

φ and ρ interpolate, through the exact binomial margin law, between the
events "discretized margin above θ_i/2" and the zero/θ-margin events of the
source classifier.  Both are continuous, [0, 1]-valued, piecewise defined
with breakpoints at λ = 0 and λ = θ_i, and — crucially — have exponentially
small Lipschitz constants once N ≥ 32·(2θ_i)⁻².  This module evaluates
them, checks the sandwich inequalities that let them replace indicator
differences, and verifies the analytic slope bounds by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import C_THETA, PreconditionError
from .discretize import _check_N, binom_margin_tail, binom_margin_tail_batch

__all__ = [
    "PhiRhoParams",
    "phi",
    "rho",
    "phi_many",
    "rho_many",
    "branch_continuity_residuals",
    "phi_bound_check",
    "diff_replacement_check",
    "DiffReplacementReport",
    "lipschitz_slope_check",
    "lip_const_bound",
    "lip_const_check",
    "LIPSCHITZ_REGIONS",
]

LIPSCHITZ_REGIONS = ("middle", "outer-phi", "outer-rho")


@dataclass(frozen=True)
class PhiRhoParams:
    """Margin threshold θ_i and discretization size N for one (φ, ρ) pair."""

    theta_i: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.theta_i <= C_THETA:
            raise ValueError(
                f"theta_i must lie in (0, {C_THETA!r}], got {self.theta_i}"
            )
        _check_N(self.N)

    @property
    def eta(self) -> float:
        """Threshold at which the discretized margin is compared: θ_i/2."""
        return self.theta_i / 2.0

    @property
    def lipschitz_threshold(self) -> float:
        """Smallest admissible N for the slope certificates: 32·(2θ_i)⁻²."""
        return 32.0 * (2.0 * self.theta_i) ** -2

    def require_slope_ready(self):
        if self.N < self.lipschitz_threshold:
            raise PreconditionError(
                f"N = {self.N} violates the slope precondition "
                f"N >= 32*(2*theta_i)^-2 = {self.lipschitz_threshold:.6g}"
            )

    def tail(self, lam: float) -> float:
        """Pr[discretized margin > θ_i/2] given source margin λ."""
        return binom_margin_tail(self.N, lam, self.eta)

    def tail_many(self, lams) -> np.ndarray:
        return binom_margin_tail_batch(self.N, lams, self.eta)


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not -C_THETA <= lam <= C_THETA:
        raise ValueError(f"lambda must lie in [-{C_THETA!r}, {C_THETA!r}], got {lam}")
    return lam


def phi(lam: float, params: PhiRhoParams) -> float:
    """Upper comparison function: tail(λ) for λ ≤ 0, linear taper to 0 at θ_i."""
    lam = _check_lambda(lam)
    if lam <= 0.0:
        return params.tail(lam)
    if lam <= params.theta_i:
        return (params.theta_i - lam) / params.theta_i * params.tail(0.0)
    return 0.0


def rho(lam: float, params: PhiRhoParams) -> float:
    """Lower comparison function: 0 for λ ≤ 0, linear rise, then 1 − tail(λ)."""
    lam = _check_lambda(lam)
    if lam <= 0.0:
        return 0.0
    if lam <= params.theta_i:
        return lam / params.theta_i * (1.0 - params.tail(params.theta_i))
    return 1.0 - params.tail(lam)


def phi_many(lams, params: PhiRhoParams) -> np.ndarray:
    """Vectorized φ over an array of margins."""
    lams = np.asarray(lams, dtype=np.float64)
    flat = lams.ravel()
    if not (np.abs(flat) <= C_THETA).all():
        raise ValueError(
            f"lambda values must be finite and lie in [-{C_THETA!r}, {C_THETA!r}]"
        )
    out = np.zeros(flat.shape, dtype=np.float64)
    left = flat <= 0.0
    if left.any():
        out[left] = params.tail_many(flat[left])
    mid = (flat > 0.0) & (flat <= params.theta_i)
    if mid.any():
        out[mid] = (params.theta_i - flat[mid]) / params.theta_i * params.tail(0.0)
    return out.reshape(lams.shape)


def rho_many(lams, params: PhiRhoParams) -> np.ndarray:
    """Vectorized ρ over an array of margins."""
    lams = np.asarray(lams, dtype=np.float64)
    flat = lams.ravel()
    if not (np.abs(flat) <= C_THETA).all():
        raise ValueError(
            f"lambda values must be finite and lie in [-{C_THETA!r}, {C_THETA!r}]"
        )
    out = np.zeros(flat.shape, dtype=np.float64)
    mid = (flat > 0.0) & (flat <= params.theta_i)
    if mid.any():
        out[mid] = flat[mid] / params.theta_i * (1.0 - params.tail(params.theta_i))
    right = flat > params.theta_i
    if right.any():
        out[right] = 1.0 - params.tail_many(flat[right])
    return out.reshape(lams.shape)


def branch_continuity_residuals(params: PhiRhoParams) -> np.ndarray:
    """|left branch − right branch| of φ and ρ at both breakpoints.

    Order: φ at 0, φ at θ_i, ρ at 0, ρ at θ_i.  All four are float noise.
    """
    t = params.theta_i
    tail0 = params.tail(0.0)
    tail_t = params.tail(t)
    return np.abs(
        np.array(
            [
                tail0 - (t - 0.0) / t * tail0,
                (t - t) / t * tail0 - 0.0,
                0.0 - 0.0 / t * (1.0 - tail_t),
                t / t * (1.0 - tail_t) - (1.0 - tail_t),
            ]
        )
    )


def phi_bound_check(params: PhiRhoParams, lambda_grid=None):
    """sup φ over a dense grid vs. the Hoeffding ceiling exp(−Nθ_i²/16).

    Returns (sup_phi, bound, holds).  Meaningful when N ≥ 32·(2θ_i)⁻²; below
    that the ceiling may genuinely fail and holds is reported honestly.
    """
    if lambda_grid is None:
        lambda_grid = np.linspace(-C_THETA, C_THETA, 10_001)
    values = phi_many(lambda_grid, params)
    sup_phi = float(values.max()) if values.size else 0.0
    bound = math.exp(-params.N * params.theta_i**2 / 16.0)
    return sup_phi, bound, sup_phi <= bound


@dataclass(frozen=True)
class DiffReplacementReport:
    """Violation counts for the four indicator-replacement inequalities."""

    theta: float
    grid_size: int
    violations: tuple
    max_violation: float

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.violations)


def diff_replacement_check(
    params: PhiRhoParams, theta: float, lambda_grid=None
) -> DiffReplacementReport:
    """Verify the sandwich 1{λ≤0}·tail ≤ φ ≤ 1{λ≤θ}·tail and its ρ mirror.

    The ρ mirror is 1{λ>θ}·(1−tail) ≤ ρ ≤ 1{λ>0}·(1−tail).  All four hold
    pointwise for any θ in (θ_i, 2θ_i]; both sides are evaluated through the
    same exact binomial tail, so violations are counted at tolerance 0.
    """
    theta = float(theta)
    if not params.theta_i < theta <= 2.0 * params.theta_i:
        raise ValueError(
            f"theta must lie in (theta_i, 2*theta_i] = "
            f"({params.theta_i}, {2.0 * params.theta_i}], got {theta}"
        )
    if lambda_grid is None:
        lambda_grid = np.linspace(-C_THETA, C_THETA, 10_001)
    lams = np.asarray(lambda_grid, dtype=np.float64)
    tails = params.tail_many(lams)
    phis = phi_many(lams, params)
    rhos = rho_many(lams, params)
    below_zero = lams <= 0.0
    below_theta = lams <= theta

    gaps = (
        np.where(below_zero, tails, 0.0) - phis,          # ≤ 0 required
        phis - np.where(below_theta, tails, 0.0),         # ≤ 0 required
        np.where(~below_theta, 1.0 - tails, 0.0) - rhos,  # ≤ 0 required
        rhos - np.where(~below_zero, 1.0 - tails, 0.0),   # ≤ 0 required
    )
    violations = tuple(int(np.count_nonzero(g > 0.0)) for g in gaps)
    max_violation = float(max(g.max() if g.size else 0.0 for g in gaps))
    return DiffReplacementReport(
        theta=theta,
        grid_size=int(lams.size),
        violations=violations,
        max_violation=max_violation,
    )


def _region_interval(params: PhiRhoParams, region: str):
    if region == "middle":
        return 0.0, params.theta_i
    if region == "outer-phi":
        return -C_THETA, 0.0
    if region == "outer-rho":
        return params.theta_i, C_THETA
    raise ValueError(f"region must be one of {LIPSCHITZ_REGIONS}, got {region!r}")


def _max_abs_slope(fn, lo: float, hi: float, num_points: int, step: float) -> float:
    """Max |finite-difference slope| of fn on [lo, hi].

    Central differences with the stencil clipped to the interval, so no
    stencil ever straddles a branch point (breakpoints coincide with region
    endpoints); points within one step of an endpoint fall back to one-sided
    differences automatically.
    """
    grid = np.linspace(lo, hi, num_points)
    left = np.maximum(grid - step, lo)
    right = np.minimum(grid + step, hi)
    width = right - left
    usable = width > 0
    slopes = (fn(right[usable]) - fn(left[usable])) / width[usable]
    return float(np.abs(slopes).max())


def lipschitz_slope_check(params: PhiRhoParams, region: str, num_points: int = 10_000):
    """Measured max slope of φ/ρ in a region vs. the analytic ceiling.

    Regions: "middle" = (0, θ_i] where both functions are linear (ceiling
    exp(−(2θ_i)²N/32)/θ_i); "outer-phi" = [−c_θ, 0] and "outer-rho" =
    (θ_i, c_θ] where the binomial tail moves (ceiling N·θ_i·exp(−Nθ_i²/8)).
    Slopes are finite differences with step 1e-4.  Requires N ≥ 32·(2θ_i)⁻².
    Returns (max_slope, analytic_bound, holds).
    """
    step = 1e-4
    params.require_slope_ready()
    lo, hi = _region_interval(params, region)
    N, t = params.N, params.theta_i
    if region == "middle":
        bound = math.exp(-((2.0 * t) ** 2) * N / 32.0) / t
        # keep the grid strictly inside the open left endpoint
        eps = t * 1e-9
        max_slope = max(
            _max_abs_slope(lambda x: phi_many(x, params), lo + eps, hi, num_points, step),
            _max_abs_slope(lambda x: rho_many(x, params), lo + eps, hi, num_points, step),
        )
    else:
        bound = N * t * math.exp(-N * t**2 / 8.0)
        fn = phi_many if region == "outer-phi" else rho_many
        eps = t * 1e-9 if region == "outer-rho" else 0.0
        max_slope = _max_abs_slope(
            lambda x: fn(x, params), lo + eps, hi, num_points, step
        )
    return max_slope, bound, max_slope <= bound


def lip_const_bound(params: PhiRhoParams, c: float = 32.0) -> float:
    """Single-constant Lipschitz ceiling c·exp(−Nθ'²/c)·(θ'N + 1/θ'), θ' = 2θ_i."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and positive, got {c}")
    tp = 2.0 * params.theta_i
    return c * math.exp(-params.N * tp**2 / c) * (tp * params.N + 1.0 / tp)


def lip_const_check(params: PhiRhoParams, num_points: int = 10_000):
    """Max measured slope over all three regions vs. the c = 32 ceiling."""
    params.require_slope_ready()
    max_slope = max(
        lipschitz_slope_check(params, region, num_points=num_points)[0]
        for region in LIPSCHITZ_REGIONS
    )
    bound = lip_const_bound(params, 32.0)
    return max_slope, bound, max_slope <= bound
