"""Closed-form generalization bounds, the dyadic partition, and N-selection.

Five bound evaluators share one input record: the classical √(ln n) bound,
its zero-loss refinement, the loss-adaptive first-order bound, the sharper
first-order bound whose log factor is ln(e/loss), and the matching lower
bound.  All expose a per-term breakdown so experiments can compare like
with like at a fixed universal constant.

The partition machinery covers the admissible margin range with dyadic
cells Θ_i = (θ_i, 2θ_i] and the loss range with cells L_j of width 2^{j−1}/n,
allocates a failure budget per cell such that each family sums to ≤ δ/2,
and selects discretization sizes N for the two per-cell concentration
statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import C_THETA, PreconditionError

__all__ = [
    "BoundInputs",
    "BoundReport",
    "sfbl98_report",
    "breiman_report",
    "gz13_report",
    "theorem1_report",
    "gkl20_lower_report",
    "all_reports",
    "BOUND_NAMES",
    "admissible_theta_floor",
    "PartitionCell",
    "PartitionScheme",
    "build_partition",
    "DeltaAllocation",
    "delta_allocation",
    "choose_N_main",
    "choose_N_within_const",
]

BOUND_NAMES = ("sfbl98", "breiman", "gz13", "theorem1", "gkl20-lower")


def _check_sizes(n, H_size) -> None:
    """Reject an n or |H| that is not an integer in range or that no float holds."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(H_size, (int, np.integer)) or H_size < 2:
        raise ValueError(f"H_size must be an integer >= 2, got {H_size!r}")
    for name, value in (("n", n), ("H_size", H_size)):
        try:
            float(value)  # the formulas divide by, or into, n and |H|
        except OverflowError:
            raise ValueError(
                f"{name} has {len(str(value))} digits, too many for a float"
            ) from None


def admissible_theta_floor(n, H_size) -> float:
    """Smallest admissible margin for the sharp bound: √(e·ln|H|/n)."""
    return math.sqrt(math.e * math.log(H_size) / n)


@dataclass(frozen=True)
class BoundInputs:
    """Shared arguments of every bound evaluator.

    ``c`` is the universal-constant knob; comparisons across bounds are only
    meaningful at matched ``c``.
    """

    n: int
    H_size: int
    theta: float
    delta: float
    loss: float
    c: float = 1.0

    def __post_init__(self):
        _check_sizes(self.n, self.H_size)
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must lie in [0, 1], got {self.loss}")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"c must be finite and nonnegative, got {self.c}")
        if self.theta**2 * self.n == 0.0 or not math.isfinite(self.complexity_rate):
            raise ValueError(
                f"theta = {self.theta} is too small: ln|H|/(theta^2*n) is not finite"
            )

    @property
    def log_H(self) -> float:
        return math.log(self.H_size)

    @property
    def complexity_rate(self) -> float:
        """ln|H| / (θ²·n), the common complexity scale of every bound."""
        return self.log_H / (self.theta**2 * self.n)

    @property
    def log_inverse_rate(self) -> float:
        """ln(θ²·n/ln|H|), the log factor of theorem1's and gkl20-lower's log terms."""
        ratio = self.theta**2 * self.n / self.log_H
        if not math.isfinite(ratio):
            raise ValueError("theta^2*n/ln|H| is too large for a float")
        return math.log(ratio)

    @property
    def delta_term(self) -> float:
        """ln(e/δ)/n."""
        return (1.0 - math.log(self.delta)) / self.n

    @property
    def theta_floor(self) -> float:
        """Smallest admissible margin for the sharp bound: √(e·ln|H|/n)."""
        return admissible_theta_floor(self.n, self.H_size)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound, split into its additive pieces.

    value = loss_offset + sqrt_term + log_term + delta_term; deviation is
    the value with the loss offset removed, i.e. the bound on the
    generalization gap itself.  Every term must be finite.
    """

    name: str
    loss_offset: float
    sqrt_term: float
    log_term: float
    delta_term: float
    warnings: tuple = field(default=())

    def __post_init__(self):
        for term in ("loss_offset", "sqrt_term", "log_term", "delta_term"):
            value = getattr(self, term)
            if not math.isfinite(value):
                raise ValueError(f"{self.name}: {term} is {value}, not a finite number")

    @property
    def value(self) -> float:
        return self.loss_offset + self.sqrt_term + self.log_term + self.delta_term

    @property
    def deviation(self) -> float:
        return self.sqrt_term + self.log_term + self.delta_term

    @property
    def dominating(self) -> str:
        terms = {
            "sqrt": self.sqrt_term,
            "log": self.log_term,
            "delta": self.delta_term,
        }
        return max(terms, key=terms.get)


def sfbl98_report(inputs: BoundInputs) -> BoundReport:
    """loss + c·√(ln(n)·ln|H|/(θ²n) + ln(e/δ)/n)."""
    a = math.log(inputs.n) * inputs.complexity_rate
    return BoundReport(
        name="sfbl98",
        loss_offset=inputs.loss,
        sqrt_term=inputs.c * math.sqrt(a + inputs.delta_term),
        log_term=0.0,
        delta_term=0.0,
    )


def breiman_report(inputs: BoundInputs) -> BoundReport:
    """c·(ln(n)·ln|H|/(θ²n) + ln(e/δ)/n); requires zero empirical margin loss."""
    if inputs.loss != 0.0:
        raise PreconditionError(
            f"loss = {inputs.loss} but the zero-margin-error form requires "
            "empirical margin loss exactly 0"
        )
    a = math.log(inputs.n) * inputs.complexity_rate
    return BoundReport(
        name="breiman",
        loss_offset=0.0,
        sqrt_term=0.0,
        log_term=inputs.c * a,
        delta_term=inputs.c * inputs.delta_term,
    )


def gz13_report(inputs: BoundInputs) -> BoundReport:
    """loss + c·(√(loss·(A + B)) + A + B), A = ln(n)·ln|H|/(θ²n), B = ln(e/δ)/n."""
    a = math.log(inputs.n) * inputs.complexity_rate
    b = inputs.delta_term
    return BoundReport(
        name="gz13",
        loss_offset=inputs.loss,
        sqrt_term=inputs.c * math.sqrt(inputs.loss * (a + b)),
        log_term=inputs.c * a,
        delta_term=inputs.c * b,
    )


def theorem1_report(inputs: BoundInputs) -> BoundReport:
    """Sharper first-order bound with the ln(e/loss) complexity factor.

    loss + c·(√(loss·(ln(e/loss)·ln|H|/(θ²n) + B))
              + ln(θ²n/ln|H|)·ln|H|/(θ²n) + B)

    with 0·ln(e/0) = 0 at zero loss.  Requires θ > √(e·ln|H|/n).
    """
    if inputs.theta <= inputs.theta_floor:
        raise PreconditionError(
            f"theta = {inputs.theta} is at or below the admissible floor "
            f"sqrt(e*ln|H|/n) = {inputs.theta_floor:.6g}"
        )
    b = inputs.delta_term
    if inputs.loss > 0.0:
        inner = inputs.loss * (
            math.log(math.e / inputs.loss) * inputs.complexity_rate + b
        )
    else:
        inner = 0.0
    log_term = inputs.log_inverse_rate * inputs.complexity_rate
    return BoundReport(
        name="theorem1",
        loss_offset=inputs.loss,
        sqrt_term=inputs.c * math.sqrt(inner),
        log_term=inputs.c * log_term,
        delta_term=inputs.c * b,
    )


def gkl20_lower_report(inputs: BoundInputs, tau: float) -> BoundReport:
    """Matching lower bound τ + c·(√(τ·ln(e/τ)·ln|H|/(θ²n)) + ln(θ²n/ln|H|)·ln|H|/(θ²n)).

    Outside its parameter regime (τ > 1/|H|, θ < c, ln|H|/(c·θ²) ≤ n) the
    value is still computed and the violated conditions are reported as
    warnings on the report.
    """
    tau = float(tau)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    warnings = []
    if tau <= 1.0 / inputs.H_size:
        warnings.append(
            f"tau = {tau:.6g} is at or below 1/|H| = {1.0 / inputs.H_size:.6g}"
        )
    if inputs.c > 0 and inputs.theta >= inputs.c:
        warnings.append(f"theta = {inputs.theta:.6g} is not below c = {inputs.c:.6g}")
    if inputs.c > 0 and inputs.log_H / (inputs.c * inputs.theta**2) > inputs.n:
        warnings.append(
            f"n = {inputs.n} is below ln|H|/(c*theta^2) = "
            f"{inputs.log_H / (inputs.c * inputs.theta**2):.6g}"
        )
    sqrt_term = inputs.c * math.sqrt(
        tau * math.log(math.e / tau) * inputs.complexity_rate
    )
    log_term = inputs.c * inputs.log_inverse_rate * inputs.complexity_rate
    return BoundReport(
        name="gkl20-lower",
        loss_offset=tau,
        sqrt_term=sqrt_term,
        log_term=log_term,
        delta_term=0.0,
        warnings=tuple(warnings),
    )


def all_reports(inputs: BoundInputs, tau=None) -> dict:
    """Every applicable bound, keyed by name; inapplicable ones map to a reason."""
    out = {"sfbl98": sfbl98_report(inputs), "gz13": gz13_report(inputs)}
    try:
        out["breiman"] = breiman_report(inputs)
    except PreconditionError as exc:
        out["breiman"] = str(exc)
    try:
        out["theorem1"] = theorem1_report(inputs)
    except PreconditionError as exc:
        out["theorem1"] = str(exc)
    if tau is not None:
        out["gkl20-lower"] = gkl20_lower_report(inputs, tau)
    return out


# ---------------------------------------------------------------------------
# Partition of the margin and loss ranges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionCell:
    """One interval cell: (lo, hi] (or [lo, hi] for the closed-left loss cell).

    ``hi_dyadic`` is the cell's un-clipped dyadic upper endpoint — the value
    the per-cell formulas use (θ_{i+1} for margin cells, l_{j+1} for loss
    cells) even when the displayed interval is clipped at 1.
    """

    index: int
    lo: float
    hi: float
    hi_dyadic: float
    closed_left: bool = False

    def contains(self, x: float) -> bool:
        if self.closed_left:
            return self.lo <= x <= self.hi
        return self.lo < x <= self.hi


@dataclass(frozen=True)
class PartitionScheme:
    """Dyadic margin cells and loss cells for one (n, |H|) pair."""

    n: int
    H_size: int
    theta_cells: tuple
    loss_cells: tuple

    @property
    def theta_floor(self) -> float:
        """Lower edge of the admissible margin range, √(e·ln|H|/n)."""
        return admissible_theta_floor(self.n, self.H_size)

    def locate_theta(self, theta: float) -> PartitionCell:
        for cell in self.theta_cells:
            if cell.contains(theta):
                return cell
        raise ValueError(
            f"theta = {theta} is outside the covered margin range "
            f"({self.theta_cells[0].lo:.6g}, 1]"
        )

    def locate_loss(self, loss: float) -> PartitionCell:
        for cell in self.loss_cells:
            if cell.contains(loss):
                return cell
        raise ValueError(f"loss = {loss} is outside the covered range [0, 1]")


def build_partition(n: int, H_size: int) -> PartitionScheme:
    """Cover (√(e·ln|H|/n), 1] with margin cells and [0, 1] with loss cells.

    Margin cells follow Θ_i = (e·2^{i−1}·s, e·2^i·s], s = √(ln|H|/n), with an
    index-0 cell included so coverage reaches down past the admissible floor
    √e·s (the i ≥ 1 family alone starts at e·s and would leave a gap), and
    the last cell clipped at 1.  Loss cells are L_0 = [0, 1/n] and
    L_j = (2^{j−1}/n, 2^j/n], clipped at 1.
    """
    _check_sizes(n, H_size)
    log_H = math.log(H_size)
    if n < math.e * log_H:
        raise ValueError(
            f"empty margin range: n = {n} is below e*ln|H| = {math.e * log_H:.6g}"
        )
    s = math.sqrt(log_H / n)

    theta_cells = []
    i = 0
    while True:
        lo = math.e * 2.0 ** (i - 1) * s
        hi_dyadic = math.e * 2.0**i * s
        theta_cells.append(
            PartitionCell(index=i, lo=lo, hi=min(hi_dyadic, 1.0), hi_dyadic=hi_dyadic)
        )
        if hi_dyadic >= 1.0:
            break
        i += 1

    loss_cells = [
        PartitionCell(index=0, lo=0.0, hi=1.0 / n, hi_dyadic=1.0 / n, closed_left=True)
    ]
    j = 1
    while loss_cells[-1].hi_dyadic < 1.0:
        lo = 2.0 ** (j - 1) / n
        hi_dyadic = 2.0**j / n
        loss_cells.append(
            PartitionCell(index=j, lo=lo, hi=min(hi_dyadic, 1.0), hi_dyadic=hi_dyadic)
        )
        j += 1

    return PartitionScheme(
        n=int(n),
        H_size=int(H_size),
        theta_cells=tuple(theta_cells),
        loss_cells=tuple(loss_cells),
    )


@dataclass(frozen=True)
class DeltaAllocation:
    """Per-cell failure budgets; each family must sum to at most δ/2."""

    delta: float
    pair_deltas: dict
    cell_deltas: dict

    @property
    def pair_sum(self) -> float:
        return math.fsum(self.pair_deltas.values())

    @property
    def cell_sum(self) -> float:
        return math.fsum(self.cell_deltas.values())

    @property
    def within_budget(self) -> bool:
        half = self.delta / 2.0
        return self.pair_sum <= half and self.cell_sum <= half


def delta_allocation(delta: float, scheme: PartitionScheme) -> DeltaAllocation:
    """Split δ across the cells of a partition, at its own n and |H|.

    Pair budgets: δ_{i,j} = (δ/e)³·exp(−ln(e/l_{j+1})·ln|H|/θ_{i+1}²).
    Margin-cell budgets: δ_i = (δ/e)³·exp(−ln(e·θ_{i+1}²·n)·ln|H|/θ_{i+1}²).
    Dyadic endpoints are used throughout.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n = scheme.n
    log_H = math.log(scheme.H_size)
    base = (delta / math.e) ** 3
    pair_deltas = {}
    cell_deltas = {}
    for tc in scheme.theta_cells:
        t_next_sq = tc.hi_dyadic**2
        for lc in scheme.loss_cells:
            pair_deltas[(tc.index, lc.index)] = base * math.exp(
                -math.log(math.e / lc.hi_dyadic) * log_H / t_next_sq
            )
        cell_deltas[tc.index] = base * math.exp(
            -math.log(math.e * t_next_sq * n) * log_H / t_next_sq
        )
    return DeltaAllocation(delta=delta, pair_deltas=pair_deltas, cell_deltas=cell_deltas)


def choose_N_main(theta_next: float, loss_next: float, c: float = 32.0) -> int:
    """Discretization size for the per-cell deviation statement.

    N = ceil(c·θ_{i+1}⁻²·ln(e/l_{j+1})), clamped up to the precondition
    floor 32·θ_{i+1}⁻².  Both arguments are dyadic upper endpoints and may
    exceed 1 (never 2).
    """
    if not 0.0 < theta_next <= 2.0:
        raise ValueError(f"theta_next must lie in (0, 2], got {theta_next}")
    if not 0.0 < loss_next <= 2.0:
        raise ValueError(f"loss_next must lie in (0, 2], got {loss_next}")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c}")
    raw = c * theta_next**-2 * math.log(math.e / loss_next)
    floor = 32.0 * theta_next**-2
    return max(math.ceil(raw), math.ceil(floor))


def choose_N_within_const(theta_next: float, n: int, H_size: int) -> int:
    """Discretization size for the uniform half-loss comparison statement.

    N = ceil(2¹¹·θ_{i+1}⁻²·ln(θ_{i+1}²·n/ln|H|)), clamped up to the
    precondition floor 64·θ_{i+1}⁻².  Requires θ_{i+1}²·n > ln|H|.
    """
    if not 0.0 < theta_next <= 2.0:
        raise ValueError(f"theta_next must lie in (0, 2], got {theta_next}")
    _check_sizes(n, H_size)
    arg = theta_next**2 * n / math.log(H_size)
    if not math.isfinite(arg):
        raise ValueError("theta_next^2*n/ln|H| is too large for a float")
    if arg <= 1.0:
        raise ValueError(
            f"theta_next^2*n/ln|H| = {arg:.6g} must exceed 1 for the size rule"
        )
    raw = 2.0**11 * theta_next**-2 * math.log(arg)
    floor = 64.0 * theta_next**-2
    return max(math.ceil(raw), math.ceil(floor))
