"""Unit tests for the piecewise comparison functions φ and ρ."""

import math

import numpy as np
import pytest

from votemargin import phirho
from votemargin.core import C_THETA, PreconditionError
from votemargin.discretize import binom_margin_tail, binom_margin_tail_batch
from votemargin.phirho import (
    LIPSCHITZ_REGIONS,
    PhiRhoParams,
    branch_continuity_residuals,
    diff_replacement_check,
    lip_const_bound,
    lipschitz_slope_check,
    phi,
    phi_bound_check,
    phi_many,
    rho,
    rho_many,
)


#: The dense λ grid the φ-ceiling and sandwich checks run on.
DENSE_GRID = np.linspace(-C_THETA, C_THETA, 10_001)


def params64():
    return PhiRhoParams(0.5, 64)


class TestPhiRhoParams:
    def test_derived_quantities(self):
        p = PhiRhoParams(0.4, 100)
        assert p.eta == 0.2
        assert p.lipschitz_threshold == 32.0 * (2.0 * 0.4) ** -2
        assert p.tail(-0.3) == binom_margin_tail(100, -0.3, 0.2)

    def test_slope_readiness(self):
        lipschitz_slope_check(PhiRhoParams(0.5, 32), "middle", 10)  # threshold is exactly 32
        with pytest.raises(PreconditionError, match="N"):
            lipschitz_slope_check(PhiRhoParams(0.5, 31), "middle", 10)

    def test_a_threshold_past_the_float_range_is_inf(self):
        # (2θ_i)⁻² overflows below θ_i ≈ 3.7e-155, 32·(2θ_i)⁻² below ≈ 2.1e-154
        for theta_i in (1e-300, 3.8e-155):
            params = PhiRhoParams(theta_i, 5)
            assert params.lipschitz_threshold == math.inf
            with pytest.raises(PreconditionError, match="inf"):
                lipschitz_slope_check(params, "middle", 10)
        # a finite threshold keeps its bits
        assert PhiRhoParams(1e-150, 5).lipschitz_threshold == 32.0 * (2.0 * 1e-150) ** -2

    def test_theta_i_range(self):
        PhiRhoParams(C_THETA, 8)  # upper endpoint is admissible
        with pytest.raises(ValueError, match="theta_i"):
            PhiRhoParams(0.0, 8)
        with pytest.raises(ValueError, match="theta_i"):
            PhiRhoParams(C_THETA + 1e-12, 8)

    def test_N_is_validated(self):
        with pytest.raises(ValueError, match="N"):
            PhiRhoParams(0.5, 0)

    def test_glue_tails_are_computed_once(self, monkeypatch):
        calls = []

        def counting_tail(N, lam, eta):
            calls.append(lam)
            return binom_margin_tail(N, lam, eta)

        monkeypatch.setattr(phirho, "binom_margin_tail", counting_tail)
        p = PhiRhoParams(0.4, 100)
        grid = np.linspace(-C_THETA, C_THETA, 101)
        for _ in range(3):
            phi_many(grid, p)
            rho_many(grid, p)
        assert sorted(calls) == [0.0, 0.4]
        assert (p.tail_zero, p.tail_theta_i) == (p.tail(0.0), p.tail(0.4))


class TestPhiRhoBranches:
    def test_phi_branches(self):
        p = params64()
        tail0 = p.tail(0.0)
        assert phi(-0.25, p) == p.tail(-0.25)  # left branch is the tail itself
        assert phi(0.0, p) == tail0
        assert phi(0.25, p) == (0.5 - 0.25) / 0.5 * tail0
        assert phi(0.5, p) == 0.0  # taper reaches zero exactly at θ_i
        assert phi(0.6, p) == 0.0

    def test_rho_branches(self):
        p = params64()
        tail_t = p.tail(0.5)
        assert rho(-0.25, p) == 0.0
        assert rho(0.0, p) == 0.0
        assert rho(0.25, p) == 0.25 / 0.5 * (1.0 - tail_t)
        assert rho(0.5, p) == 1.0 - tail_t
        assert rho(0.6, p) == 1.0 - p.tail(0.6)

    def test_frozen_reference_values(self):
        p = params64()
        assert phi(-0.25, p) == 1.4923997702541388e-05
        assert phi(0.2, p) == 0.009829727729646959
        assert rho(0.3, p) == 0.010836256052495651
        assert rho(0.7, p) == 8.755118802605821e-06

    def test_values_stay_in_unit_interval(self):
        p = PhiRhoParams(0.3, 48)
        grid = np.linspace(-C_THETA, C_THETA, 2001)
        for values in (phi_many(grid, p), rho_many(grid, p)):
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_rejects_margins_outside_the_reduced_range(self):
        p = params64()
        for bad in (C_THETA + 1e-9, -C_THETA - 1e-9):
            with pytest.raises(ValueError, match="lambda"):
                phi(bad, p)
            with pytest.raises(ValueError, match="lambda"):
                rho(bad, p)


class TestVectorizedAgreement:
    def test_phi_many_matches_scalar(self):
        p = params64()
        grid = np.concatenate(
            [np.linspace(-C_THETA, C_THETA, 401), [0.0, 0.5, np.nextafter(0.5, 1.0)]]
        )
        batch = phi_many(grid, p)
        assert batch.shape == grid.shape
        # tail-backed branches go through the bdtrc batch evaluator, so
        # agreement with the exact scalar is approximate at ~1e-12
        for lam, value in zip(grid, batch):
            assert math.isclose(
                value, phi(float(lam), p), rel_tol=1e-9, abs_tol=1e-13
            ), lam

    def test_rho_many_matches_scalar(self):
        p = params64()
        grid = np.concatenate(
            [np.linspace(-C_THETA, C_THETA, 401), [0.0, 0.5, np.nextafter(0.5, 1.0)]]
        )
        batch = rho_many(grid, p)
        for lam, value in zip(grid, batch):
            assert math.isclose(
                value, rho(float(lam), p), rel_tol=1e-9, abs_tol=1e-13
            ), lam

    def test_shape_and_empty(self):
        p = params64()
        assert phi_many(np.zeros((3, 2)), p).shape == (3, 2)
        assert rho_many(np.array([]), p).shape == (0,)

    def test_rejects_out_of_range(self):
        p = params64()
        with pytest.raises(ValueError, match="lambda"):
            phi_many(np.array([0.0, 1.0]), p)
        with pytest.raises(ValueError, match="lambda"):
            rho_many(np.array([-1.0]), p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        p = params64()
        with pytest.raises(ValueError, match="lambda"):
            phi_many(np.array([bad, 0.2]), p)
        with pytest.raises(ValueError, match="lambda"):
            rho_many(np.array([0.2, bad]), p)


class TestBranchContinuity:
    def test_residuals_vanish(self):
        for theta_i, N in ((0.5, 64), (0.3, 7), (C_THETA, 128)):
            res = branch_continuity_residuals(PhiRhoParams(theta_i, N))
            assert res.shape == (4,)
            assert np.all(res <= 1e-15)

    @pytest.mark.parametrize(
        "glue, wrong, at", [("tail_zero", 0.3, 0), ("tail_theta_i", 0.0, 3)]
    )
    def test_a_wrong_glue_shows_as_a_jump(self, monkeypatch, glue, wrong, at):
        # φ glued with T(θ_i) jumps at 0; ρ glued with T(0) jumps at θ_i
        monkeypatch.setattr(PhiRhoParams, glue, property(lambda self: self.tail(wrong)))
        p = PhiRhoParams(0.3, 7)
        expected = np.zeros(4)
        expected[at] = abs(p.tail(0.0) - p.tail(0.3))
        assert expected[at] > 0.1
        assert branch_continuity_residuals(p) == pytest.approx(expected, abs=1e-15)


class TestPhiBoundCheck:
    def test_ceiling_holds_and_sup_sits_at_zero(self):
        p = params64()
        sup_phi, bound, holds = phi_bound_check(p, DENSE_GRID)
        assert holds
        # φ is maximized at λ = 0 (batch evaluation, hence approximate)
        assert sup_phi == pytest.approx(p.tail(0.0), rel=1e-12)
        assert bound == math.exp(-64 * 0.25 / 16.0)

    def test_custom_grid(self):
        p = params64()
        sup_phi, _, holds = phi_bound_check(p, lambda_grid=np.array([-0.1, 0.2]))
        assert holds
        assert sup_phi == max(phi(-0.1, p), phi(0.2, p))

    def test_holds_even_for_small_N(self):
        # the ceiling exp(−Nθ_i²/16) is looser than the λ=0 tail for every N
        for N in (1, 2, 5):
            _, _, holds = phi_bound_check(PhiRhoParams(0.5, N), DENSE_GRID)
            assert holds


class TestDiffReplacement:
    def test_sandwich_holds_at_zero_tolerance(self):
        violations, max_violation = diff_replacement_check(
            PhiRhoParams(0.35, 128), 0.5, DENSE_GRID
        )
        assert violations == (0, 0, 0, 0)
        assert max_violation == 0.0  # φ equals its floor for λ ≤ 0

    def test_all_margin_regions_are_exercised(self):
        p = PhiRhoParams(0.35, 128)
        grid = np.array([-0.2, 0.1, 0.45, 0.65])  # λ≤0, ≤θ_i, ≤θ, >θ
        violations, _ = diff_replacement_check(p, 0.5, lambda_grid=grid)
        assert violations == (0, 0, 0, 0)

    def test_theta_window_is_enforced(self):
        p = PhiRhoParams(0.35, 128)
        diff_replacement_check(p, 2 * 0.35, DENSE_GRID)  # upper endpoint is admissible
        with pytest.raises(ValueError, match="theta"):
            diff_replacement_check(p, 0.35, DENSE_GRID)
        with pytest.raises(ValueError, match="theta"):
            diff_replacement_check(p, 0.71, DENSE_GRID)


class TestLipschitz:
    def test_measured_slopes_stay_under_the_regional_ceilings(self):
        p = params64()
        for region in LIPSCHITZ_REGIONS:
            max_slope, bound, holds = lipschitz_slope_check(p, region, num_points=2000)
            assert holds, region
            assert 0.0 <= max_slope <= bound

    def test_middle_region_slope_is_the_linear_taper(self):
        p = params64()
        max_slope, _, _ = lipschitz_slope_check(p, "middle", num_points=2000)
        expected = max(p.tail(0.0), 1.0 - p.tail(0.5)) / 0.5
        assert max_slope == pytest.approx(expected, rel=1e-9)

    def test_empty_region_has_zero_slope(self):
        # at θ_i = c_θ the region (θ_i, c_θ] holds no margin
        p = PhiRhoParams(C_THETA, 128)
        slope, _, holds = lipschitz_slope_check(p, "outer-rho", num_points=200)
        assert slope == 0.0 and holds
        max_slope = max(
            lipschitz_slope_check(p, region, num_points=200)[0]
            for region in ("middle", "outer-phi")
        )
        assert max_slope <= lip_const_bound(p, 32.0)

    def test_region_narrower_than_its_grid_drops_repeated_points(self):
        # (θ_i + θ_i·1e-9, c_θ] is 7e-15 wide: 65 floats for 10 000 grid points
        theta_i = C_THETA / (1 + 1e-9) * (1 - 1e-14)
        slope, _, holds = lipschitz_slope_check(
            PhiRhoParams(theta_i, 200), "outer-rho", num_points=10_000
        )
        assert math.isfinite(slope) and holds

    @pytest.mark.parametrize("region", ["outer-phi", "outer-rho"])
    def test_outer_region_evaluates_each_grid_point_once(self, monkeypatch, region):
        sizes = []

        def counting_batch(N, lams, eta):
            sizes.append(np.size(lams))
            return binom_margin_tail_batch(N, lams, eta)

        monkeypatch.setattr(phirho, "binom_margin_tail_batch", counting_batch)
        lipschitz_slope_check(params64(), region, num_points=500)
        assert sizes == [500]

    def test_requires_slope_ready(self):
        with pytest.raises(PreconditionError, match="N"):
            lipschitz_slope_check(PhiRhoParams(0.5, 16), "middle", num_points=10_000)

    def test_rejects_unknown_region(self):
        with pytest.raises(ValueError, match="region"):
            lipschitz_slope_check(params64(), "sideways", num_points=10_000)

    def test_single_constant_ceiling(self):
        p = params64()
        assert lip_const_bound(p, 32.0) == pytest.approx(
            32.0 * math.exp(-64 * 1.0 / 32.0) * (1.0 * 64 + 1.0), rel=1e-15
        )
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c"):
                lip_const_bound(p, c=c)
        regional = max(
            lipschitz_slope_check(p, r, num_points=2000)[0] for r in LIPSCHITZ_REGIONS
        )
        assert regional <= lip_const_bound(p, 32.0)
