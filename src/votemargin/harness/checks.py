"""Per-lemma numerical check suites behind `validate <lemma-id>`.

Each suite sweeps a grid or Monte Carlo trial set and returns its raw rows
and worst violation; ``validate`` persists them as one CSV plus a plain-text
summary and returns a LemmaCheckReport whose verdict is pass iff the max
violation is within the stated tolerance.  Where a statement carries an
unpinned universal constant, the suite reports the smallest constant that
makes every check pass instead of asserting one.

The ``margin-law`` suite draws its Monte Carlo margins through the same draw
as ``sample_discretization``, at N up to 1024, so it tests the library's
sampler as well as the exact tail.
"""

from __future__ import annotations

import math

import numpy as np

from ..bounds import admissible_theta_floor, build_partition, delta_allocation
from ..core import (
    C_THETA,
    DataDistribution,
    HypothesisClass,
    LabeledSample,
    VotingClassifier,
    _check_count,
    _check_real,
    _generator,
)
from ..discretize import (
    _draw_indices,
    _slope_threshold,
    binom_margin_tail,
    decomposition_residual,
    expected_half_margin_loss_bound_check,
    margin_law_monotone_check,
    sample_discretization,
)
from ..phirho import (
    LIPSCHITZ_REGIONS,
    PhiRhoParams,
    branch_continuity_residuals,
    diff_replacement_check,
    lip_const_bound,
    lipschitz_slope_check,
    phi_bound_check,
)
from ..rademacher import (
    convexity_collapse_check,
    exhaustive_rademacher,
    massart_bound,
)
from ..rng import stream
from .reporting import LemmaCheckReport, resolve_out_dir, write_csv, write_summary

__all__ = [
    "VALID_LEMMA_IDS",
    "validate",
    "repair_duplicate_constants",
    "random_hypothesis_class",
    "random_distribution",
    "random_voting",
    "smallest_c_monotone",
    "binomial_ci",
]

# ---------------------------------------------------------------------------
# Shared random-instance builders and calibration helpers
# ---------------------------------------------------------------------------


def repair_duplicate_constants(matrix: np.ndarray) -> np.ndarray:
    """Flip the first entry of surplus constant rows, in place.

    A class accepts a repeated constant row, but the seeded recipes keep this
    step so every seeded class keeps its bits: ``massart``, for one, draws
    classes over 2 points, where a constant row often repeats.
    """
    for label in (1, -1):
        rows = np.flatnonzero((matrix == label).all(axis=1))
        for r in rows[1:]:
            matrix[r, 0] = -label
    return matrix


def random_hypothesis_class(rng_seed, X_size: int, H_size: int) -> HypothesisClass:
    """A seeded random ±1 class of H_size hypotheses over {0..X_size−1}."""
    X_size = _check_count(X_size, "X_size", 2)
    H_size = _check_count(H_size, "H_size")
    rng = _generator(rng_seed)
    matrix = (rng.integers(0, 2, size=(H_size, X_size)) * 2 - 1).astype(np.int8)
    return HypothesisClass._adopt(repair_duplicate_constants(matrix))


def random_distribution(rng_seed, domain_size: int) -> DataDistribution:
    """Random labels and Dirichlet atom masses over every point of the domain."""
    domain_size = _check_count(domain_size, "domain_size")
    rng = _generator(rng_seed)
    labels = rng.integers(0, 2, size=domain_size) * 2 - 1
    probs = rng.dirichlet(np.ones(domain_size))
    return DataDistribution(LabeledSample(domain_size, np.arange(domain_size), labels), probs)


def random_voting(rng_seed, size: int) -> VotingClassifier:
    """Dirichlet(1, …, 1) weights over a class of ``size`` hypotheses."""
    size = _check_count(size, "size")
    return VotingClassifier(_generator(rng_seed).dirichlet(np.ones(size)))


def smallest_c_monotone(fn, target: float) -> float:
    """Smallest c ≥ 0 with fn(c) ≥ target, for fn increasing in c.

    The bracket starts at [0, 1] and doubles its upper end until it holds
    the answer, then is halved at most 80 times.  The halving stops early
    once no double lies strictly between its ends, since from then on no
    step would move either end.  The target must be a finite real number.
    """
    target = _check_real(target, "target", -math.inf, math.inf)
    if target <= 0.0:
        return 0.0
    hi = 1.0
    grow = 0
    while fn(hi) < target:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise ValueError("no constant reaches the target")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        # A mid equal to an evaluated end moves neither end, and every later
        # step repeats it.  Each end has been evaluated but lo = 0, which
        # only hi = 2^-1074 halves to: there fn(0) decides the step.
        if mid == hi or (mid == lo and lo > 0.0):
            break
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def binomial_ci(trials: int, p: float, level: float):
    """Central exact binomial interval of counts at the given level."""
    trials = _check_count(trials, "trials", 0)
    p = _check_real(p, "p", 0, 1)
    level = _check_real(level, "level", 0, 1)
    alpha = (1.0 - level) / 2.0
    return _binomial_quantile(alpha, trials, p), _binomial_quantile(1.0 - alpha, trials, p)


def _binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest count k in [0, n] with Pr[Binom(n, p) ≤ k] ≥ q, by bisection."""
    from scipy.special import bdtr  # local: scipy loads on the first interval, not on import

    lo, hi = 0, n  # Pr[Binom(n, p) ≤ n] = 1 ≥ q
    while lo < hi:
        mid = (lo + hi) // 2
        if bdtr(mid, n, p) >= q:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


#: Two-sided level of a 5-sigma normal band, 1 − erfc(5/√2): a Monte Carlo
#: count is judged against the exact binomial interval at this level.
_FIVE_SIGMA_LEVEL = 1.0 - math.erfc(5.0 / math.sqrt(2.0))


#: Rows of one block of Monte Carlo draws: at N = 1024 a block holds 8 MB of
#: indices, where all 200 000 rows at once would hold 1.6 GB.  Consecutive
#: blocks from one generator equal one unblocked draw, so the block size
#: moves no hit count.
_MC_BLOCK_ROWS = 1024


def _check_margin_law(seed, trials, grid_points):
    """Hit counts of sampled discretizations against the exact margin tail.

    H = {+1, −1} on one point labeled +1, and f puts weight (1 + λ)/2 on the
    +1 hypothesis, so y·f(x) = λ.  Each Monte Carlo margin is y·g(x) for one
    discretization g of N indices drawn by the sampler's own draw; one (M, N)
    draw per (N, λ) serves the three η.
    """
    del grid_points
    M = trials or 20_000
    H = HypothesisClass([[1], [-1]])
    etas = (0.0, 0.25, 0.5)
    rows = []
    worst = 0
    for b, N in enumerate((8, 32, 128, 1024)):
        for li, lam in enumerate((-0.9, -0.5, 0.0, 0.3, 0.7)):
            a = 0.5 + 0.5 * lam
            f = VotingClassifier([a, 1.0 - a])
            hits = np.zeros(len(etas), dtype=np.int64)
            rng = stream(seed, 0, b, li)
            for start in range(0, M, _MC_BLOCK_ROWS):
                indices = _draw_indices(f, (min(_MC_BLOCK_ROWS, M - start), N), rng)
                margins = H.matrix[indices, 0].sum(axis=1) / N
                hits += [np.count_nonzero(margins > eta) for eta in etas]
            for eta, count in zip(etas, hits.tolist()):
                exact = binom_margin_tail(N, lam, eta)
                ci_lo, ci_hi = binomial_ci(M, exact, _FIVE_SIGMA_LEVEL)
                excess = max(ci_lo - count, count - ci_hi, 0)
                worst = max(worst, excess)
                rows.append((N, lam, eta, exact, count / M, count, ci_lo, ci_hi, excess == 0))
    return (
        ["N", "lambda", "eta", "exact_tail", "mc_tail", "hits", "ci_lo", "ci_hi", "ok"],
        rows,
        f"Monte Carlo margins of sampled discretizations vs the exact binomial margin "
        f"tail on a {len(rows)}-point grid, N up to 1024, {M} draws of N hypotheses "
        f"per (N, lambda) (exact binomial interval at the 5-sigma level)",
        worst / M, 0.0,
    )


def _check_monotonicity(seed, trials, grid_points):
    del seed, trials
    pts = grid_points or 1000
    rows = []
    violations = 0
    for N in (8, 32, 128, 1024):
        for eta in (0.0, 0.25, 0.5):
            grid = np.linspace(-1.0, 1.0, pts)
            ok, first = margin_law_monotone_check(N, eta, grid)
            violations += 0 if ok else 1
            rows.append((N, eta, pts, ok, "" if first is None else first))
    return (
        ["N", "eta", "grid_points", "ok", "first_violation"],
        rows,
        f"margin tail non-decreasing in lambda over {pts}-point grids",
        float(violations), 0.0,
    )


def _check_decomposition(seed, trials, grid_points):
    del grid_points
    count = trials or 100
    rows = []
    worst = 0.0
    for t in range(count):
        rng = stream(seed, 1, t)
        X_size = int(rng.integers(2, 65))
        H_size = int(rng.integers(2, 9))
        N = int(rng.integers(1, 17))
        H = random_hypothesis_class(rng, X_size, H_size)
        D = random_distribution(rng, H.domain_size)
        f = random_voting(rng, H_size)
        g = sample_discretization(f, H, N, rng)
        S = D.sample(int(rng.integers(5, 51)), rng)
        theta = float(rng.uniform(1e-6, 1.0))
        theta_i = float(rng.uniform(1e-6, 1.0))
        residual = decomposition_residual(f, g, H, D, S, theta, theta_i)
        worst = max(worst, residual)
        rows.append((t, X_size, H_size, N, theta, theta_i, residual))
    return (
        ["trial", "X_size", "H_size", "N", "theta", "theta_i", "residual"],
        rows,
        f"loss-splitting identity residual on {count} random instances",
        worst, 1e-12,
    )


def _draw_pair(rng):
    """A (θ_i, N) pair with N at or above the slope precondition."""
    theta_i = float(rng.uniform(0.05, C_THETA))
    mult = float(rng.choice((1.0, 2.0, 4.0)))
    N = math.ceil(mult * _slope_threshold(theta_i))
    return theta_i, N


def _check_phi_rho_ineq(seed, trials, grid_points):
    count = trials or 50
    pts = grid_points or 2001
    rows = []
    total = 0
    worst = 0.0
    grid = np.linspace(-C_THETA, C_THETA, pts)
    for t in range(count):
        rng = stream(seed, 2, t)
        theta_i, N = _draw_pair(rng)
        theta = float(rng.uniform(theta_i, 2.0 * theta_i))
        theta = min(max(theta, np.nextafter(theta_i, 2)), 2.0 * theta_i)
        violations, max_violation = diff_replacement_check(
            PhiRhoParams(theta_i, N), theta, grid
        )
        total += sum(violations)
        worst = max(worst, max_violation)
        rows.append((t, theta_i, N, theta, *violations, max_violation))
    return (
        ["trial", "theta_i", "N", "theta",
         "viol_lower_phi", "viol_upper_phi", "viol_lower_rho", "viol_upper_rho",
         "max_violation"],
        rows,
        f"four indicator-replacement inequalities on {count} ({pts}-point) grids",
        float(total), 0.0,
    )


def _check_phi_bound(seed, trials, grid_points):
    count = trials or 50
    pts = grid_points or 10_001
    rows = []
    worst = -math.inf
    grid = np.linspace(-C_THETA, C_THETA, pts)
    for t in range(count):
        rng = stream(seed, 3, t)
        theta_i, N = _draw_pair(rng)
        params = PhiRhoParams(theta_i, N)
        jump = float(branch_continuity_residuals(params).max())
        sup_phi, bound, holds = phi_bound_check(params, grid)
        worst = max(worst, sup_phi - bound, jump - 1e-12)
        rows.append((t, theta_i, N, jump, sup_phi, bound, holds and jump <= 1e-12))
    return (
        ["trial", "theta_i", "N", "max_continuity_residual",
         "sup_phi", "bound", "ok"],
        rows,
        f"sup(phi) <= exp(-N*theta_i^2/16) plus branch continuity on {count} pairs",
        worst, 0.0,
    )


def _check_lipschitz(seed, trials, grid_points):
    del seed, trials
    pts = grid_points or 10_000
    thetas = (0.1, 0.2, 0.35, 0.5, 0.7)
    mults = (1.0, 4.0, 16.0)
    rows = []
    worst = -math.inf
    calibrated = 0.0
    for theta_i in thetas:
        for mult in mults:
            N = math.ceil(mult * _slope_threshold(theta_i))
            params = PhiRhoParams(theta_i, N)
            pair_slope = 0.0
            for region in LIPSCHITZ_REGIONS:
                slope, bound, holds = lipschitz_slope_check(
                    params, region, num_points=pts
                )
                pair_slope = max(pair_slope, slope)
                worst = max(worst, slope - bound)
                rows.append((theta_i, N, region, slope, bound, holds))
            calibrated = max(
                calibrated,
                smallest_c_monotone(lambda c: lip_const_bound(params, c), pair_slope),
            )
    return (
        ["theta_i", "N", "region", "max_slope", "bound", "ok"],
        rows,
        f"finite-difference slopes vs analytic ceilings, {len(thetas) * len(mults)} "
        f"(theta_i, N) pairs x {len(LIPSCHITZ_REGIONS)} regions",
        worst, 0.0, calibrated,
    )


_DELTA_GRID_N = (10**2, 10**3, 10**4, 10**6)
_DELTA_GRID_H = (2**4, 2**10, 2**20)
_DELTA_GRID_DELTA = (0.5, 0.05, 0.001)


def _check_delta_allocation(seed, trials, grid_points):
    del seed, trials, grid_points
    rows = []
    worst = -math.inf
    for n in _DELTA_GRID_N:
        for H_size in _DELTA_GRID_H:
            scheme = build_partition(n, H_size)
            for delta in _DELTA_GRID_DELTA:
                alloc = delta_allocation(delta, scheme)
                budget = delta / 2.0
                gap = max(alloc.pair_sum - budget, alloc.cell_sum - budget)
                worst = max(worst, gap)
                rows.append(
                    (n, H_size, delta, alloc.pair_sum, alloc.cell_sum, budget,
                     gap <= 0.0)
                )
    return (
        ["n", "H_size", "delta", "pair_sum", "cell_sum", "budget", "ok"],
        rows,
        "per-cell failure budgets sum within delta/2 per family over the "
        f"{len(_DELTA_GRID_N)}x{len(_DELTA_GRID_H)}x{len(_DELTA_GRID_DELTA)} grid",
        worst, 0.0,
    )


def _coverage(cells, xs):
    """(uncovered, multiply covered) counts of the points xs over the cells."""
    cover = np.sum([cell.contains(xs) for cell in cells], axis=0)
    return int(np.count_nonzero(cover == 0)), int(np.count_nonzero(cover > 1))


def _check_partition_coverage(seed, trials, grid_points):
    del seed, trials
    pts = grid_points or 10_000
    rows = []
    bad = 0
    for n in _DELTA_GRID_N:
        for H_size in _DELTA_GRID_H:
            scheme = build_partition(n, H_size)
            floor = admissible_theta_floor(n, H_size)
            eps = (1.0 - floor) * 1e-9
            thetas = np.linspace(floor + eps, 1.0, pts)
            t_unc, t_dbl = _coverage(scheme.theta_cells, thetas)
            l_unc, l_dbl = _coverage(scheme.loss_cells, np.linspace(0.0, 1.0, pts))
            bad += t_unc + t_dbl + l_unc + l_dbl
            rows.append((n, H_size, t_unc, t_dbl, l_unc, l_dbl))
    return (
        ["n", "H_size", "theta_uncovered", "theta_doubly_covered",
         "loss_uncovered", "loss_doubly_covered"],
        rows,
        f"membership sweeps of {pts} points per range per (n, |H|) pair",
        float(bad), 0.0,
    )


def _check_massart(seed, trials, grid_points):
    del grid_points
    count = trials or 200
    rows = []
    worst = -math.inf
    for t in range(count):
        rng = stream(seed, 4, t)
        n = int(rng.integers(1, 15))
        H_size = int(rng.integers(2, 33))
        H = random_hypothesis_class(rng, max(n, 2), H_size)
        S = LabeledSample(H.domain_size, rng.integers(0, H.domain_size, size=n), np.ones(n))
        exact = exhaustive_rademacher(H, S).value
        bound = massart_bound(H_size, n)
        worst = max(worst, exact - bound)
        rows.append((t, n, H_size, exact, bound, exact <= bound))
    return (
        ["trial", "n", "H_size", "exhaustive", "bound", "ok"],
        rows,
        f"exhaustive Rademacher value vs sqrt(2 ln|H|/n) on {count} instances",
        worst, 0.0,
    )


def _check_convexity_collapse(seed, trials, grid_points):
    del grid_points
    count = trials or 50
    rows = []
    failures = 0
    for t in range(count):
        rng = stream(seed, 5, t)
        n = int(rng.integers(2, 21))
        H_size = int(rng.integers(2, 17))
        H = random_hypothesis_class(rng, max(n, 2), H_size)
        S = LabeledSample(H.domain_size, rng.integers(0, H.domain_size, size=n), np.ones(n))
        ok = convexity_collapse_check(H, S, trials=200, rng_seed=rng)
        failures += 0 if ok else 1
        rows.append((t, n, H_size, ok))
    return (
        ["trial", "n", "H_size", "ok"],
        rows,
        f"hull supremum never exceeds class supremum, {count} instances x 200 draws",
        float(failures), 0.0,
    )


def _check_half_margin_expectation(seed, trials, grid_points):
    del grid_points
    count = trials or 50
    rows = []
    worst = -math.inf
    for t in range(count):
        rng = stream(seed, 6, t)
        theta_i, N = _draw_pair(rng)
        X_size = int(rng.integers(2, 33))
        H_size = int(rng.integers(2, 9))
        H = random_hypothesis_class(rng, X_size, H_size)
        D = random_distribution(rng, H.domain_size)
        f = random_voting(rng, H_size)
        lhs, rhs, holds = expected_half_margin_loss_bound_check(f, H, D, theta_i, N)
        worst = max(worst, lhs - rhs)
        rows.append((t, theta_i, N, lhs, rhs, holds))
    return (
        ["trial", "theta_i", "N", "lhs", "rhs", "ok"],
        rows,
        "expected half-threshold loss of the discretization vs the 3/4-threshold "
        f"source loss plus exp(-N*theta_i^2/128), {count} random instances",
        worst, 0.0,
    )


_SUITES = {
    "margin-law": _check_margin_law,
    "monotonicity": _check_monotonicity,
    "decomposition": _check_decomposition,
    "phi-rho-ineq": _check_phi_rho_ineq,
    "phi-bound": _check_phi_bound,
    "lipschitz": _check_lipschitz,
    "delta-allocation": _check_delta_allocation,
    "partition-coverage": _check_partition_coverage,
    "massart": _check_massart,
    "convexity-collapse": _check_convexity_collapse,
    "half-margin-expectation": _check_half_margin_expectation,
}

VALID_LEMMA_IDS = tuple(_SUITES)


def validate(lemma_id: str, config) -> LemmaCheckReport:
    """Run one named check suite, persist its CSV and summary, return the report.

    ``config`` is a parsed [validate] section providing seed, trial count,
    grid density, and the output directory.  The directory is resolved
    (created) before the suite runs, so an unusable one fails first.  A
    suite only computes: it returns (header, rows, summary, max_violation,
    tolerance), plus the calibrated constant where it has one.
    """
    if lemma_id not in _SUITES:
        raise ValueError(
            f"unknown lemma id {lemma_id!r}; valid ids: {', '.join(VALID_LEMMA_IDS)}"
        )
    params = config.params
    out_dir = resolve_out_dir(params["out"])
    header, rows, summary, max_violation, tolerance, *calibrated = _SUITES[lemma_id](
        config.seed, params["trials"], params["grid_points"]
    )
    slug = lemma_id.replace("-", "_")
    csv_path = write_csv(out_dir / f"validate_{slug}.csv", header, rows)
    report = LemmaCheckReport(
        lemma=lemma_id,
        summary=summary,
        max_violation=float(max_violation),
        tolerance=float(tolerance),
        calibrated_constant=calibrated[0] if calibrated else None,
        csv_path=str(csv_path),
    )
    write_summary(out_dir / f"validate_{slug}.txt", report.lines())
    return report
