"""
Piecewise surrogates for joint margin events
============================================

The functions phi and rho replace indicator-vs-threshold comparisons with
continuous surrogates built from the exact binomial margin tail.  phi
dominates the probability of "g clears half the threshold while f fails",
rho is dominated by the mirror event, and both are Lipschitz once the
discretization size N is large enough.  This script shows their shapes,
the sandwich inequalities, and the measured slopes against the analytic
ceilings.
"""

import math

import numpy as np

from votemargin.phirho import (
    C_THETA,
    LIPSCHITZ_REGIONS,
    PhiRhoParams,
    branch_continuity_residuals,
    diff_replacement_check,
    lip_const_bound,
    lipschitz_slope_check,
    phi,
    phi_bound_check,
    rho,
)

params = PhiRhoParams(theta_i=0.4, N=128)
print(f"theta_i = {params.theta_i}, N = {params.N}, eta = theta_i/2 = {params.eta}")

# ------------------------------------------------------------------
# Shape: phi decays from the left tail to 0 across (0, theta_i]; rho
# rises from 0 to the right tail.  Both are glued continuously.
# ------------------------------------------------------------------
print(f"\n{'lambda':>8} {'phi':>14} {'rho':>14}")
for lam in (-0.5, -0.2, 0.0, 0.1, 0.3, 0.4, 0.5, 0.7):
    print(f"{lam:>8.2f} {phi(lam, params):>14.6g} {rho(lam, params):>14.6g}")

residuals = branch_continuity_residuals(params)
print(f"\nbranch continuity residuals at the two breakpoints: {residuals}")

# ------------------------------------------------------------------
# The ceiling: sup phi is attained at lambda -> 0+ and sits under
# exp(-N theta_i^2 / 16) with room to spare.
# ------------------------------------------------------------------
grid = np.linspace(-C_THETA, C_THETA, 10_001)
sup_phi, ceiling, holds = phi_bound_check(params, grid)
print(f"sup phi = {sup_phi:.6g} <= exp(-N theta_i^2/16) = {ceiling:.6g}: {holds}")

# ------------------------------------------------------------------
# Sandwich inequalities on a dense grid: for any theta in (theta_i,
# 2 theta_i], phi sits between the indicator-weighted tails, and rho
# between the complementary ones.  Violation counts must be zero.
# ------------------------------------------------------------------
theta = 0.6
violations, max_violation = diff_replacement_check(params, theta, grid)
print(f"\nsandwich check at theta = {theta} on {grid.size} points:")
print(f"  violations per inequality: {violations}")
print(f"  largest signed gap: {max_violation:.3e}")

# ------------------------------------------------------------------
# Lipschitz regions.  The middle region (0, theta_i] is linear; the two
# outer regions move with the binomial tail.  N = 128 >= 32/(2*0.4)^2
# = 50, so the slope ceilings apply.
# ------------------------------------------------------------------
print(f"\nslope ceilings (threshold N >= {params.lipschitz_threshold:.1f}):")
slopes = []
for region in LIPSCHITZ_REGIONS:
    slope, bound, ok = lipschitz_slope_check(params, region, num_points=2000)
    slopes.append(slope)
    print(f"  {region:>10}: measured {slope:.6g} <= ceiling {bound:.6g}: {ok}")

max_slope, single_bound = max(slopes), lip_const_bound(params, 32.0)
print(f"single-constant ceiling: max slope {max_slope:.6g} <= {single_bound:.6g}: "
      f"{max_slope <= single_bound}")
print(f"\nlambda domain is [{-C_THETA:.4f}, {C_THETA:.4f}] throughout")
