"""Randomized experiments: concentration calibration and bound-vs-gap study.

The two concentration experiments replay the deviation statements behind the
sharp bound on seeded random instances.  Each trial draws a fresh sample,
measures a probe-sup deviation statistic (a supremum over a finite probe
family — vertex classifiers, random convex combinations, and one boosted
classifier — not the full convex-hull supremum), and records the smallest
constant making the statement's right-hand side dominate the measurement.
The constant calibrated at the empirical (1−δ)-quantile then fails on a
fraction of trials that must sit inside the exact binomial 95% interval
around δ.

Trials execute sequentially with per-trial derived seeds, so results are
identical however the work would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._scalar import PreconditionError, _check_count, _check_real
from ..boosting import adaboost, build_stump_class, generate_synthetic, margin_histogram
from ..bounds import (
    BoundInputs,
    _log_size_ratio,
    admissible_theta_floor,
    all_reports,
    build_partition,
    choose_N_main,
    choose_N_within_const,
    gz13_report,
    theorem1_report,
)
from ..core import (
    DataDistribution,
    HypothesisClass,
    LabeledSample,
    _draw_signs,
    _empirical_margin_loss,
    _margins,
    margins_on_sample,
    true_margin_loss,
)
from ..discretize import _check_N, binom_margin_tail_batch
from ..rng import stream
from .checks import binomial_ci, repair_duplicate_constants, smallest_c_monotone
from .config import ExperimentConfig
from .reporting import (
    read_constants_csv,
    resolve_out_dir,
    write_constants_csv,
    write_csv,
    write_summary,
)

__all__ = [
    "CONSTANTS_FILENAME",
    "ConcentrationReport",
    "GapVsBoundsReport",
    "AdaboostReport",
    "concentration_experiment",
    "gap_vs_bounds_experiment",
    "adaboost_experiment",
    "half_margin_rhs",
    "within_const_rhs",
]

CONSTANTS_FILENAME = "calibrated_constants.csv"

_PROBE_BOOST_ROUNDS = 50


# ---------------------------------------------------------------------------
# Right-hand sides of the two deviation statements
# ---------------------------------------------------------------------------


def half_margin_rhs(
    n: int, H_size: int, delta: float, theta_next: float, loss_next: float, N: int
):
    """RHS of the half-threshold deviation statement, as a function of c.

    c·(√((l_next + exp(−N·θ_next²/c))·ln(|H|^N/δ)/n) + ln(|H|^N/δ)/n),
    strictly increasing in c.
    """
    n = _check_count(n, "n")
    H_size = _check_count(H_size, "H_size", 2)
    delta = _check_real(delta, "delta", 0, 1, lo_open=True, hi_open=True)
    theta_next = _check_real(theta_next, "theta_next", 0, 2, lo_open=True)
    loss_next = _check_real(loss_next, "loss_next", 0, 2, lo_open=True)
    N = _check_N(N)
    log_term = (N * math.log(H_size) + math.log(1.0 / delta)) / n

    def rhs(c: float) -> float:
        if c <= 0.0:
            return 0.0
        slack = math.exp(-N * theta_next**2 / c)
        return c * (math.sqrt((loss_next + slack) * log_term) + log_term)

    return rhs


def within_const_rhs(
    n: int, H_size: int, theta_next: float, delta: float, c: float
) -> float:
    """RHS of the uniform half-loss comparison: c·(A + B) with
    A = ln(θ_next²·n/ln|H|)·ln|H|/(θ_next²·n) and B = ln(e/δ)/n."""
    n = _check_count(n, "n")
    H_size = _check_count(H_size, "H_size", 2)
    theta_next = _check_real(theta_next, "theta_next", 0, 2, lo_open=True)
    delta = _check_real(delta, "delta", 0, 1, lo_open=True, hi_open=True)
    c = _check_real(c, "c", 0, math.inf, hi_open=True)
    log_H = math.log(H_size)
    a = _log_size_ratio(theta_next, n, H_size, cell=True) * log_H / (theta_next**2 * n)
    b = math.log(math.e / delta) / n
    return c * (a + b)


# ---------------------------------------------------------------------------
# Concentration experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationReport:
    """Outcome of one concentration experiment."""

    kind: str
    seed: int
    n: int
    H_size: int
    X_size: int
    trials: int
    delta: float
    theta: float
    theta_lo: float
    theta_next: float
    probe_count: int
    probe_protocol: str
    loss_cell: int
    cell_members: int
    N: int
    quantile_dev: float
    calibrated_c: float
    failure_count: int
    ci_lo: int
    ci_hi: int
    csv_path: str
    constants_path: str

    @property
    def passed(self) -> bool:
        return self.ci_lo <= self.failure_count <= self.ci_hi

    def lines(self):
        yield f"experiment: {self.kind}"
        yield (
            f"instance: n={self.n} |H|={self.H_size} |X|={self.X_size} "
            f"seed={self.seed} trials={self.trials} delta={self.delta}"
        )
        yield (
            f"margin cell: theta={self.theta} -> "
            f"({self.theta_lo:.6g}, {min(self.theta_next, 1.0):.6g}], "
            f"dyadic upper endpoint {self.theta_next:.6g}"
        )
        yield (
            f"statistic: probe-sup over {self.probe_count} probes "
            "(vertices + random convex combinations + one boosted "
            f"classifier), {self.probe_protocol}; not the full convex-hull "
            "supremum"
        )
        if self.loss_cell >= 0:
            yield (
                f"loss cell: index {self.loss_cell} "
                f"({self.cell_members}/{self.probe_count} probes inside)"
            )
        yield f"discretization sizes N: {self.N}"
        yield f"empirical (1-{self.delta})-quantile of the statistic: {self.quantile_dev:.17g}"
        yield f"calibrated constant c*: {self.calibrated_c:.17g}"
        yield (
            f"failures at c*: {self.failure_count}/{self.trials} "
            f"(frequency {self.failure_count / self.trials:.6g}); exact binomial 95% "
            f"interval for rate {self.delta}: [{self.ci_lo}, {self.ci_hi}]"
        )
        yield f"verdict: {'pass' if self.passed else 'FAIL'}"


class _ConcentrationInstance:
    """Seeded planted instance and probe machinery.

    The distribution is mostly realizable: a handful of near-copies of the
    labeling err on small "light" atoms with varied masses, alongside fully
    random hypotheses.  Random convex combinations tilted toward the good
    hypotheses then have small, well-spread losses, so per-trial deviation
    statistics take many distinct values near their upper quantiles — a
    purely random class makes every probe's loss so large that the one-sided
    statistic never goes positive and calibration degenerates.
    """

    __slots__ = (
        "H", "D", "probs", "alpha", "fixed_margins", "probe_margins",
        "scheme", "cell", "theta_i", "theta_next", "n_combos",
    )

    def __init__(self, config: ExperimentConfig):
        p = config.params
        n, h_size, x_size = p["n"], p["h_size"], p["x_size"]
        rng = stream(config.seed, 0)

        n_light = max(1, min(16, x_size // 2))
        light = rng.uniform(0.3, 3.5, size=n_light) / n
        if light.sum() > 0.2:
            light *= 0.2 / light.sum()
        rest = np.ones(x_size - n_light)
        heavy = rng.dirichlet(rest) * (1.0 - light.sum())
        masses = np.concatenate([light, heavy])
        labels = _draw_signs(rng, x_size)

        n_good = min(5, max(1, h_size - 3))
        matrix = np.empty((h_size, x_size), dtype=np.int8)
        for i in range(n_good):
            row = labels.copy()
            flips = rng.choice(n_light, size=min((2, 3, 4)[i % 3], n_light),
                               replace=False)
            row[flips] = -row[flips]
            matrix[i] = row
        matrix[n_good:] = _draw_signs(rng, (h_size - n_good, x_size))
        self.H = HypothesisClass._adopt(repair_duplicate_constants(matrix))
        self.D = DataDistribution(LabeledSample(x_size, np.arange(x_size), labels), masses)
        self.alpha = np.array([2.0] * n_good + [0.5] * (h_size - n_good))
        self.n_combos = p["probes"]

        probe_sample = self.D.sample(n, stream(config.seed, 2))
        boosted = adaboost(probe_sample, self.H, _PROBE_BOOST_ROUNDS)
        fixed_weights = np.vstack(
            [np.eye(h_size), boosted.classifier.weights[None, :]]
        )
        self.probs = self.D.probabilities
        self.fixed_margins = self.margins_of(fixed_weights)
        combos = stream(config.seed, 1).dirichlet(self.alpha, size=self.n_combos)
        self.probe_margins = np.vstack(
            [self.fixed_margins, self.margins_of(combos)]
        )
        self.scheme = build_partition(n, h_size)
        self.cell = self.scheme.locate_theta(p["theta"])
        self.theta_i = self.cell.lo
        self.theta_next = self.cell.hi_dyadic

    def margins_of(self, weights: np.ndarray) -> np.ndarray:
        """Margin rows over the atoms of D for a (k, |H|) weight matrix.

        Clipped to [−1, 1]: summing ±1 columns against unit-sum weights can
        overshoot by one ulp.
        """
        margins = _margins(weights @ self.H.matrix, self.H, self.D.atoms)
        return np.clip(margins, -1.0, 1.0, out=margins)

    @property
    def probe_count(self) -> int:
        return self.probe_margins.shape[0]


def _calibrate(c_trials: np.ndarray, trials: int, delta: float):
    """Constant at the empirical (1−δ)-quantile: the midpoint between the
    ⌊δT⌋-th and (⌊δT⌋+1)-th largest per-trial constants, so at most ⌊δT⌋
    trials exceed it (exactly ⌊δT⌋ when those order statistics differ)."""
    k = int(math.floor(delta * trials))
    order = np.sort(c_trials)[::-1]
    if k == 0 or k >= trials:
        c_star = float(order[0]) if k == 0 else float(order[-1])
    else:
        c_star = 0.5 * (float(order[k - 1]) + float(order[k]))
    failures = int(np.count_nonzero(c_trials > c_star))
    return c_star, failures


def _persist_constant(out_dir, key: str, value: float) -> str:
    path = out_dir / CONSTANTS_FILENAME
    constants = read_constants_csv(path) if path.exists() else {}
    constants[key] = value
    write_constants_csv(path, constants)
    return str(path)


def concentration_experiment(config: ExperimentConfig) -> ConcentrationReport:
    """Run the half-margin or within-const concentration experiment."""
    if config.kind not in ("half-margin", "within-const"):
        raise ValueError(
            f"kind must be half-margin or within-const, got {config.kind!r}"
        )
    p = config.params
    out_dir = resolve_out_dir(p["out"])
    n, trials, delta = p["n"], p["trials"], p["delta"]
    inst = _ConcentrationInstance(config)
    half_eta = inst.theta_i / 2.0

    if config.kind == "half-margin":
        # The statement is per loss cell, so probes are filtered to the most
        # populated cell of their 3/4-threshold losses.  Expected
        # half-threshold losses of the sampled discretization are computed
        # in closed form per probe and atom, so each trial reduces to a
        # frequency-weighted average of precomputed rows.  The probe family
        # stays fixed across trials: the statistic averages real-valued
        # rows, so it is already effectively atomless.
        three_quarter_loss = (
            (inst.probe_margins <= 0.75 * inst.theta_i).astype(np.float64)
            @ inst.probs
        )
        cell_indices = np.array(
            [inst.scheme.locate_loss(v).index for v in three_quarter_loss]
        )
        modal = int(np.bincount(cell_indices).argmax())
        members = np.flatnonzero(cell_indices == modal)
        loss_next = inst.scheme.loss_cells[modal].hi_dyadic
        N = choose_N_main(inst.theta_next, loss_next, 32.0)
        tails = binom_margin_tail_batch(
            N, inst.probe_margins[members].ravel(), half_eta
        )
        exp_rows = 1.0 - tails.reshape(len(members), -1)
        true_exp = exp_rows @ inst.probs
        rhs = half_margin_rhs(n, p["h_size"], delta, inst.theta_next, loss_next, N)

        sup_devs = np.empty(trials)
        c_trials = np.empty(trials)
        for t in range(trials):
            rng = stream(config.seed, 3, t)
            freq = rng.multinomial(n, inst.probs) / n
            dev = np.abs(true_exp - exp_rows @ freq)
            sup_devs[t] = dev.max()
            c_trials[t] = smallest_c_monotone(rhs, float(sup_devs[t]))
        loss_cell, cell_members = modal, len(members)
        protocol = "fixed probe family"
    else:
        # The statement quantifies over all of C(H), so no cell filtering.
        # The empirical loss is count-valued, so with a fixed probe family
        # the probe-sup would concentrate on a few lattice values and break
        # quantile calibration; redrawing the random combinations each trial
        # keeps trials i.i.d. and spreads the statistic over many values.
        unit = within_const_rhs(n, p["h_size"], inst.theta_next, delta, 1.0)

        sup_devs = np.empty(trials)
        c_trials = np.empty(trials)
        for t in range(trials):
            rng = stream(config.seed, 3, t)
            counts = rng.multinomial(n, inst.probs)
            combos = rng.dirichlet(inst.alpha, size=inst.n_combos)
            margins = np.vstack([inst.fixed_margins, inst.margins_of(combos)])
            target = ((margins <= 0.75 * inst.theta_i) @ inst.probs) / 2.0
            sample_loss = ((margins <= inst.theta_i) @ counts) / n
            lhs = target - sample_loss
            sup_devs[t] = lhs.max()
            c_trials[t] = max(0.0, sup_devs[t]) / unit
        N = choose_N_within_const(inst.theta_next, n, p["h_size"])
        loss_cell, cell_members = -1, -1
        protocol = "random combinations redrawn each trial"

    quantile = float(np.quantile(sup_devs, 1.0 - delta, method="higher"))
    c_star, failures = _calibrate(c_trials, trials, delta)
    ci_lo, ci_hi = binomial_ci(trials, delta, 0.95)

    slug = config.kind.replace("-", "_")
    csv_path = out_dir / f"{slug}_trials.csv"
    write_csv(
        csv_path,
        ["trial", "sup_statistic", "smallest_c"],
        [(t, sup_devs[t], c_trials[t]) for t in range(trials)],
    )
    constants_path = _persist_constant(out_dir, config.kind, c_star)

    report = ConcentrationReport(
        kind=config.kind,
        seed=config.seed,
        n=n,
        H_size=p["h_size"],
        X_size=p["x_size"],
        trials=trials,
        delta=delta,
        theta=p["theta"],
        theta_lo=inst.theta_i,
        theta_next=inst.theta_next,
        probe_count=inst.probe_count,
        probe_protocol=protocol,
        loss_cell=loss_cell,
        cell_members=cell_members,
        N=N,
        quantile_dev=quantile,
        calibrated_c=c_star,
        failure_count=failures,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        csv_path=str(csv_path),
        constants_path=constants_path,
    )
    write_summary(out_dir / f"{slug}_summary.txt", report.lines())
    return report


# ---------------------------------------------------------------------------
# Gap vs bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapVsBoundsReport:
    """Outcome of the generalization-gap vs bound-family study."""

    seed: int
    c_used: float
    c_source: str
    delta: float
    trend_theta: float
    matched_loss: float
    trend_ratios: tuple
    trend_ok: bool
    gap_ok: bool
    rows_skipped: int
    csv_path: str

    @property
    def passed(self) -> bool:
        return self.trend_ok and self.gap_ok

    def lines(self):
        yield "experiment: gap-vs-bounds"
        yield f"seed: {self.seed}; delta: {self.delta}"
        yield f"constant c: {self.c_used:.17g} ({self.c_source})"
        yield f"rows skipped (theta at or below admissible floor): {self.rows_skipped}"
        ratios = ", ".join(f"{r:.6g}" for r in self.trend_ratios)
        yield (
            f"sharp/first-order deviation ratio at theta={self.trend_theta}, "
            f"matched loss {self.matched_loss:.6g}: {ratios}"
        )
        yield f"ratio strictly decreasing in n: {'yes' if self.trend_ok else 'NO'}"
        yield (
            "measured gap within the sharp deviation on every row: "
            f"{'yes' if self.gap_ok else 'NO'}"
        )
        yield f"verdict: {'pass' if self.passed else 'FAIL'}"


def _resolve_gap_constant(params) -> tuple:
    if params.get("c") is not None:
        return float(params["c"]), "explicit config value"
    path = params.get("constants_csv")
    if path is not None:
        constants = read_constants_csv(path)
        if not constants:
            raise ValueError(f"constants_csv {path} holds no constants")
        return max(constants.values()), f"max of calibrated constants in {path}"
    return 1.0, "default"


def gap_vs_bounds_experiment(config: ExperimentConfig) -> GapVsBoundsReport:
    """Train one booster per sample size and compare gap against the bounds."""
    if config.kind != "gap-vs-bounds":
        raise ValueError(f"kind must be gap-vs-bounds, got {config.kind!r}")
    p = config.params
    out_dir = resolve_out_dir(p["out"])
    delta = p["delta"]
    c_used, c_source = _resolve_gap_constant(p)
    H = build_stump_class(p["d"], p["k"])
    floor_by_n = {n: admissible_theta_floor(n, len(H)) for n in p["n_grid"]}

    trained = []
    for i, n in enumerate(p["n_grid"]):
        D, S = generate_synthetic(H, n, p["noise"], stream(config.seed, 4, i))
        f = adaboost(S, H, p["t"]).classifier
        trained.append((n, true_margin_loss(f, H, D, 0.0), margins_on_sample(f, H, S)))

    rows = []
    skipped = 0
    gap_ok = True
    for n, true_loss, margins in trained:
        for theta in p["theta_grid"]:
            loss = _empirical_margin_loss(margins, theta)
            gap = true_loss - loss
            if theta <= floor_by_n[n]:
                skipped += 1
                rows.append(
                    (n, theta, gap, "", "", "", "", "", loss, true_loss,
                     "", "", "", True)
                )
                continue
            inputs = BoundInputs(
                n=n, H_size=len(H), theta=theta, delta=delta, loss=loss, c=c_used
            )
            r = all_reports(inputs, tau=max(loss, 1.0 / n))
            thm1, gz13, lower = r["theorem1"], r["gz13"], r["gkl20-lower"]
            brei = "" if isinstance(r["breiman"], str) else r["breiman"].value
            if gap > thm1.deviation:
                gap_ok = False
            rows.append(
                (n, theta, gap, thm1.value, gz13.value, r["sfbl98"].value, brei,
                 lower.value, loss, true_loss, thm1.deviation, gz13.deviation,
                 len(lower.warnings), False)
            )

    trend_theta = p["trend_theta"]
    admissible = [(n, margins) for n, _, margins in trained if trend_theta > floor_by_n[n]]
    if len(admissible) < 2:
        raise PreconditionError(
            f"trend_theta = {trend_theta} is admissible for fewer than two "
            "sample sizes; no trend can be computed"
        )
    matched_loss = float(
        np.mean([_empirical_margin_loss(margins, trend_theta) for _, margins in admissible])
    )
    ratios = []
    for n, _ in admissible:
        inputs = BoundInputs(
            n=n, H_size=len(H), theta=trend_theta, delta=delta,
            loss=matched_loss, c=c_used,
        )
        ratios.append(
            theorem1_report(inputs).deviation / gz13_report(inputs).deviation
        )
    trend_ok = all(b < a for a, b in zip(ratios, ratios[1:]))

    csv_path = out_dir / "gap_vs_bounds.csv"
    write_csv(
        csv_path,
        ["n", "theta", "gap", "thm1", "gz13", "sfbl98", "breiman",
         "lower_bound", "loss", "true_loss", "thm1_deviation",
         "gz13_deviation", "lower_warnings", "skipped"],
        rows,
    )
    report = GapVsBoundsReport(
        seed=config.seed,
        c_used=c_used,
        c_source=c_source,
        delta=delta,
        trend_theta=trend_theta,
        matched_loss=matched_loss,
        trend_ratios=tuple(ratios),
        trend_ok=trend_ok,
        gap_ok=gap_ok,
        rows_skipped=skipped,
        csv_path=str(csv_path),
    )
    write_summary(out_dir / "gap_vs_bounds_summary.txt", report.lines())
    return report


# ---------------------------------------------------------------------------
# AdaBoost training runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaboostReport:
    """Outcome of one boosting training run."""

    seed: int
    n: int
    H_size: int
    status: str
    rounds_completed: int
    rounds_requested: int
    final_train_error: float
    final_min_margin: float
    rounds_csv: str
    margins_csv: str

    @property
    def passed(self) -> bool:
        return True

    def lines(self):
        yield "experiment: adaboost"
        yield f"seed: {self.seed}; n: {self.n}; |H|: {self.H_size}"
        yield (
            f"rounds: {self.rounds_completed}/{self.rounds_requested} "
            f"(status: {self.status})"
        )
        yield f"final training error: {self.final_train_error:.17g}"
        yield f"final minimum margin: {self.final_min_margin:.17g}"
        yield f"per-round table: {self.rounds_csv}"
        yield f"margin histogram: {self.margins_csv}"


def adaboost_experiment(config: ExperimentConfig) -> AdaboostReport:
    """Train a booster on a synthetic task and persist its round table."""
    if config.kind != "adaboost":
        raise ValueError(f"kind must be adaboost, got {config.kind!r}")
    p = config.params
    out_dir = resolve_out_dir(p["out"])
    H = build_stump_class(p["d"], p["k"])
    S = generate_synthetic(H, p["n"], p["noise"], stream(config.seed, 0))[1]  # D is not kept
    result = adaboost(S, H, p["t"])

    rounds_csv = out_dir / "adaboost_rounds.csv"
    write_csv(
        rounds_csv,
        ["round", "hypothesis", "epsilon", "alpha", "train_error",
         "min_margin", "exp_loss"],
        [
            (r.round, r.hypothesis, r.epsilon, r.alpha, r.train_error,
             r.min_margin, r.exp_loss)
            for r in result.rounds
        ],
    )
    hist = margin_histogram(result.classifier, H, S, p["bins"])
    cumulative = hist.cumulative_fraction()
    margins_csv = out_dir / "adaboost_margins.csv"
    write_csv(
        margins_csv,
        ["bin_left", "bin_right", "count", "cumulative_fraction"],
        [
            (hist.edges[i], hist.edges[i + 1], hist.counts[i], cumulative[i])
            for i in range(len(hist.counts))
        ],
    )
    last = result.rounds[-1] if result.rounds else None
    report = AdaboostReport(
        seed=config.seed,
        n=p["n"],
        H_size=len(H),
        status=result.status,
        rounds_completed=result.T_completed,
        rounds_requested=p["t"],
        final_train_error=last.train_error if last else 1.0,
        final_min_margin=last.min_margin if last else -1.0,
        rounds_csv=str(rounds_csv),
        margins_csv=str(margins_csv),
    )
    write_summary(out_dir / "adaboost_summary.txt", report.lines())
    return report

