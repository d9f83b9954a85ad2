"""Acceptance suite: ten end-to-end criteria, one per test.

Each test exercises a full capability of the library — exact binomial margin
law against Monte Carlo and high-precision oracles, the surrogate-function
inequalities, partition budgets, Rademacher estimates, and the calibrated
concentration/trend experiments — and writes one ``criterion k: PASS/FAIL``
line to the real stdout so the verdicts survive pytest's capture.

Monte Carlo criteria use pinned seeds (chosen once, recorded in the test);
their tolerances are the statistical bands stated with each criterion, not
tuned values.  Calibrated constants are regression-locked: a change in the
experiment pipeline that moves them is a test failure, not a re-freeze.
"""

import itertools
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from votemargin.core import (
    DataDistribution,
    HypothesisClass,
    LabeledSample,
    VotingClassifier,
)
from votemargin.discretize import (
    DiscretizedClassifier,
    binom_margin_tail,
    decomposition_residual,
    margin_law_monotone_check,
    sample_discretization,
)
from votemargin.harness.checks import (
    _FIVE_SIGMA_LEVEL,
    binomial_ci,
    random_hypothesis_class,
    validate,
)
from votemargin.harness.config import parse_config_text
from votemargin.harness.experiments import (
    CONSTANTS_FILENAME,
    concentration_experiment,
    gap_vs_bounds_experiment,
)
from votemargin.harness.reporting import read_constants_csv
from votemargin.phirho import (
    C_THETA,
    LIPSCHITZ_REGIONS,
    PhiRhoParams,
    branch_continuity_residuals,
    diff_replacement_check,
    lipschitz_slope_check,
    phi_bound_check,
)
from votemargin.rademacher import (
    convexity_collapse_check,
    empirical_rademacher,
    exhaustive_rademacher,
    massart_bound,
)
from votemargin.rng import stream

SUITE_START = time.perf_counter()

GRID_N = (8, 32, 128, 1024)
GRID_LAMBDA = (-0.9, -0.5, 0.0, 0.3, 0.7)
GRID_ETA = (0.0, 0.25, 0.5)

# Regression locks for the calibrated constants (seed 42 pipeline below).
CALIBRATED_HALF_MARGIN = 0.005681385512477127
CALIBRATED_WITHIN_CONST = 0.061821738736705704

CONCENTRATION_CONFIG = """[{kind}]
seed = 42
n = 200
h_size = 8
x_size = 32
trials = 500
delta = 0.1
theta = 0.35
probes = 100
out = {out}
"""

GAP_CONFIG = """[gap-vs-bounds]
seed = 42
noise = 0.0
t = 400
n_grid = 200, 800, 3200
theta_grid = 0.3, 0.45, 0.6, 0.75, 0.9
trend_theta = 0.6
delta = 0.05
constants_csv = {constants}
out = {out}
"""


def announce(capsys, number: int, passed: bool, detail: str) -> None:
    """One verdict line per criterion, printed past pytest's capture."""
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {verdict} — {detail}")


def random_instance(rng, x_size: int, h_size: int, n: int):
    """A random hypothesis class with a distribution, sample, and voter."""
    H = random_hypothesis_class(rng, x_size, h_size)
    probs = rng.dirichlet(np.ones(x_size))
    labels = rng.choice([-1, 1], size=x_size)
    D = DataDistribution(LabeledSample(x_size, np.arange(x_size), labels), probs)
    idx = rng.integers(0, x_size, size=n)
    S = LabeledSample(x_size, idx, labels[idx])
    f = VotingClassifier(rng.dirichlet(np.ones(h_size)))
    return H, D, S, f


def reference_tail(N: int, lam: float, eta: float) -> float:
    """50-digit oracle for P(margin > eta) by direct atom enumeration."""
    ks = next(
        k for k in range(N + 2) if k > N or Fraction(2 * k - N, N) > Fraction(eta)
    )
    if ks > N:
        return 0.0
    p = mp.mpf(1) / 2 + mp.mpf(lam) / 2
    q = 1 - p
    if p == 0:
        return 0.0 if ks > 0 else 1.0
    if q == 0:
        return 1.0
    total = mp.mpf(0)
    for k in range(ks, N + 1):
        total += mp.e ** (
            mp.loggamma(N + 1)
            - mp.loggamma(k + 1)
            - mp.loggamma(N - k + 1)
            + k * mp.log(p)
            + (N - k) * mp.log(q)
        )
    return float(total)


@pytest.fixture(scope="module")
def calibrated_dir(tmp_path_factory):
    """Both concentration experiments, run once; criteria 9 and 10 share it."""
    out = tmp_path_factory.mktemp("calibration")
    reports = {}
    for kind in ("half-margin", "within-const"):
        config = parse_config_text(CONCENTRATION_CONFIG.format(kind=kind, out=out))
        reports[kind] = concentration_experiment(config)
    return out, reports


def test_criterion_1_margin_law_monte_carlo(capsys):
    """MC margins from the actual index sampler (small N) and the binomial
    shortcut (large N) agree with the exact law at every grid point: each hit
    count lies in the exact binomial interval at the two-sided 5-sigma level."""
    t0 = time.perf_counter()
    M = 200_000
    seed = 2  # pinned; every seed in 0..99 passes
    H2 = HypothesisClass([[1], [-1]])
    worst = 0
    failures = []
    for bi, N in enumerate(GRID_N):
        for li, lam in enumerate(GRID_LAMBDA):
            rng = stream(seed, bi, li)
            a = (1.0 + lam) / 2.0
            f = VotingClassifier([a, 1.0 - a])
            if N <= 32:
                idx = rng.choice(2, size=(M, N), p=f.weights)
                margins = H2.matrix[idx, 0].mean(axis=1)
            else:
                kcorrect = rng.binomial(N, a, size=M)
                margins = (2.0 * kcorrect - N) / N
            for eta in GRID_ETA:
                hits = int(np.count_nonzero(margins > eta))
                exact = binom_margin_tail(N, lam, eta)
                # exact, not normal: at a rare tail one hit already lies
                # outside a normal band
                lo, hi = binomial_ci(M, exact, _FIVE_SIGMA_LEVEL)
                excess = max(lo - hits, hits - hi, 0)
                worst = max(worst, excess)
                if excess:
                    failures.append((N, lam, eta, hits, lo, hi))
    elapsed = time.perf_counter() - t0
    passed = not failures and elapsed < 120.0
    announce(
        capsys, 1, passed,
        f"60 grid points, M={M}, worst hit count {worst} outside the exact "
        f"5-sigma interval, {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_2_exact_oracle_equivalence(capsys):
    """The exact tail matches 50-digit direct enumeration to 1e-13 relative."""
    mp.mp.dps = 50
    worst = 0.0
    for N in GRID_N:
        for lam in GRID_LAMBDA:
            for eta in GRID_ETA:
                ours = binom_margin_tail(N, lam, eta)
                ref = reference_tail(N, lam, eta)
                denom = ref if ref > 0.0 else 1.0
                worst = max(worst, abs(ours - ref) / denom)
    passed = worst <= 1e-13
    announce(capsys, 2, passed, f"worst relative error {worst:.3e} <= 1e-13")
    assert worst <= 1e-13


def test_criterion_3_monotonicity_in_lambda(capsys):
    """The tail is non-decreasing in lambda on 1000-point grids, zero
    violations for every (N, eta) pair of the acceptance grid."""
    grid = np.linspace(-1.0, 1.0, 1000)
    bad = []
    for N in GRID_N:
        for eta in GRID_ETA:
            ok, first_bad = margin_law_monotone_check(N, eta, grid)
            if not ok:
                bad.append((N, eta, first_bad))
    announce(capsys, 3, not bad, f"{len(GRID_N) * len(GRID_ETA)} (N, eta) pairs, "
                         f"{len(bad)} with a decrease")
    assert not bad, bad


def test_criterion_4_decomposition_identity(capsys):
    """Loss-splitting identity residual <= 1e-12 on 100 random instances,
    plus 10 instances checked for every g in the full discretization set."""
    rng = stream(11, 0)
    worst = 0.0
    for _ in range(100):
        x_size = int(rng.integers(4, 65))
        h_size = int(rng.integers(2, 9))
        n = int(rng.integers(5, 41))
        N = int(rng.integers(1, 17))
        H, D, S, f = random_instance(rng, x_size, h_size, n)
        g = sample_discretization(f, H, N, rng)
        theta = float(rng.uniform(0.05, 1.0))
        theta_i = float(rng.uniform(0.05, 1.0))
        worst = max(worst, decomposition_residual(f, g, H, D, S, theta, theta_i))

    rng = stream(11, 1)
    worst_exhaustive = 0.0
    for _ in range(10):
        x_size = int(rng.integers(3, 9))
        h_size = int(rng.integers(2, 4))
        n = int(rng.integers(4, 13))
        N = int(rng.integers(2, 5))
        H, D, S, _ = random_instance(rng, x_size, h_size, n)
        f = VotingClassifier(rng.dirichlet(np.ones(h_size)))
        theta = float(rng.uniform(0.05, 1.0))
        theta_i = float(rng.uniform(0.05, 1.0))
        for tup in itertools.product(range(h_size), repeat=N):
            g = DiscretizedClassifier(H, tup)
            worst_exhaustive = max(
                worst_exhaustive,
                decomposition_residual(f, g, H, D, S, theta, theta_i),
            )
    worst_overall = max(worst, worst_exhaustive)
    passed = worst_overall <= 1e-12
    announce(capsys, 4, passed, f"100 random + 10 exhaustive instances, worst residual "
                        f"{worst_overall:.3e} <= 1e-12")
    assert worst <= 1e-12
    assert worst_exhaustive <= 1e-12


def test_criterion_5_phi_rho_surrogates(capsys):
    """For 50 (theta_i, N) pairs: branch continuity <= 1e-12, sup phi under
    the exp(-N theta^2/16) ceiling, and all four replacement inequalities
    hold pointwise on dense grids with zero violations."""
    rng = stream(13, 0)
    worst_residual = 0.0
    total_violations = 0
    for _ in range(50):
        theta_i = float(rng.uniform(0.05, C_THETA))
        N = int(rng.integers(1, 513))
        params = PhiRhoParams(theta_i, N)
        worst_residual = max(
            worst_residual, float(np.max(np.abs(branch_continuity_residuals(params))))
        )
        _, _, holds = phi_bound_check(params)
        assert holds, (theta_i, N)
        theta = float(rng.uniform(theta_i, 2.0 * theta_i))
        theta = min(max(theta, np.nextafter(theta_i, 1.0)), 2.0 * theta_i)
        report = diff_replacement_check(params, theta)
        total_violations += sum(report.violations)
    passed = worst_residual <= 1e-12 and total_violations == 0
    announce(capsys, 5, passed, f"50 pairs; worst continuity residual "
                        f"{worst_residual:.3e}, {total_violations} sandwich violations")
    assert worst_residual <= 1e-12
    assert total_violations == 0


def test_criterion_6_lipschitz_slopes(capsys):
    """Measured central-difference slopes (step 1e-4) stay under the
    analytic per-region ceilings whenever N >= 32/(2 theta_i)^2."""
    t0 = time.perf_counter()
    rng = stream(7, 0)
    bad = []
    for _ in range(20):
        theta_i = float(rng.uniform(0.15, 0.7))
        threshold = 32.0 / (2.0 * theta_i) ** 2
        N = int(math.ceil(threshold)) + int(rng.integers(0, 200))
        params = PhiRhoParams(theta_i, N)
        for region in LIPSCHITZ_REGIONS:
            slope, bound, holds = lipschitz_slope_check(params, region)
            if not holds:
                bad.append((theta_i, N, region, slope, bound))
    elapsed = time.perf_counter() - t0
    passed = not bad and elapsed < 300.0
    announce(capsys, 6, passed, f"20 pairs x {len(LIPSCHITZ_REGIONS)} regions, "
                        f"{len(bad)} over the ceiling, {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 300.0


def test_criterion_7_delta_allocation_and_coverage(tmp_path, capsys):
    """Failure-budget sums stay within delta/2 per family on the full
    (n, |H|, delta) grid, and partition membership sweeps find no uncovered
    or doubly-covered point."""
    config = parse_config_text(f"[validate]\nseed = 1\nout = {tmp_path}\n")
    alloc = validate("delta-allocation", config)
    coverage = validate("partition-coverage", config)
    passed = alloc.passed and coverage.passed
    announce(capsys, 7, passed, f"budget excess {alloc.max_violation:.3e} <= 0; "
                        f"{int(coverage.max_violation)} coverage defects")
    assert alloc.passed
    assert coverage.passed


def test_criterion_8_rademacher_estimates(capsys):
    """On 50 random instances (n <= 14, |H| <= 32): the MC estimate is
    within 4 sigma of the exhaustive oracle, the exhaustive value obeys the
    sqrt(2 ln|H|/n) ceiling, and the convexity collapse holds on all draws."""
    rng = stream(12, 0)
    worst_sigma = 0.0
    for i in range(50):
        n = int(rng.integers(4, 15))
        h_size = int(rng.integers(2, 33))
        x_size = max(4, n)
        H = random_hypothesis_class(rng, x_size, h_size)
        idx = rng.integers(0, x_size, size=n)
        labels = rng.choice([-1, 1], size=n)
        S = LabeledSample(x_size, idx, labels)
        exact = exhaustive_rademacher(H, S)
        estimate = empirical_rademacher(H, S, trials=4000, rng_seed=stream(12, 1, i))
        gap = abs(estimate.value - exact.value)
        assert gap <= 4.0 * estimate.std_error + 1e-12, (i, gap, estimate.std_error)
        if estimate.std_error > 0:
            worst_sigma = max(worst_sigma, gap / estimate.std_error)
        assert exact.value <= massart_bound(h_size, n) + 1e-15, (i, exact.value)
        assert convexity_collapse_check(H, S, rng_seed=stream(12, 2, i)), i
    announce(capsys, 8, True, f"50 instances; worst MC deviation {worst_sigma:.2f} sigma "
                      f"<= 4; ceiling and collapse hold on all")


def test_criterion_9_calibrated_concentration(calibrated_dir, capsys):
    """Both concentration experiments land their failure frequency inside
    the exact binomial 95% CI of delta, and the calibrated constants are
    persisted and regression-locked."""
    out, reports = calibrated_dir
    for report in reports.values():
        assert (report.ci_lo, report.ci_hi) == (37, 64)
        assert report.ci_lo <= report.failure_count <= report.ci_hi
        assert report.passed
    constants = read_constants_csv(out / CONSTANTS_FILENAME)
    assert constants["half-margin"] == pytest.approx(CALIBRATED_HALF_MARGIN, rel=1e-9)
    assert constants["within-const"] == pytest.approx(
        CALIBRATED_WITHIN_CONST, rel=1e-9
    )
    hm = reports["half-margin"]
    wc = reports["within-const"]
    announce(capsys, 9, True, f"failures {hm.failure_count}/{wc.failure_count} of 500 "
                      f"in [37, 64]; constants locked at "
                      f"{constants['half-margin']:.6f}/{constants['within-const']:.6f}")


def test_criterion_10_improvement_trend(calibrated_dir, capsys):
    """On the separable task the deviation ratio strictly decreases over
    n in {200, 800, 3200} at matched loss and calibrated c, and the measured
    gap stays under the sharper bound in every row."""
    out, _ = calibrated_dir
    config = parse_config_text(
        GAP_CONFIG.format(constants=out / CONSTANTS_FILENAME, out=out)
    )
    report = gap_vs_bounds_experiment(config)
    ratios = report.trend_ratios
    strictly_decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    passed = strictly_decreasing and report.gap_ok and report.rows_skipped == 0
    announce(capsys, 10, passed, f"ratios {ratios[0]:.4f} > {ratios[1]:.4f} > "
                         f"{ratios[2]:.4f}; gap under bound in all rows at "
                         f"c = {report.c_used:.6f}")
    assert strictly_decreasing, ratios
    assert report.gap_ok
    assert report.rows_skipped == 0
    assert report.c_used == pytest.approx(CALIBRATED_WITHIN_CONST, rel=1e-9)
    assert "calibrated" in report.c_source
    # the acceptance suite itself must fit the stated runtime envelope
    assert time.perf_counter() - SUITE_START < 900.0
