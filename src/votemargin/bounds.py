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

from ._scalar import (
    PreconditionError,
    _check_count,
    _check_real,
    _inverse_square,
    _slope_threshold,
)

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


def admissible_theta_floor(n, H_size) -> float:
    """Smallest admissible margin for the sharp bound: √(e·ln|H|/n)."""
    return math.sqrt(math.e * math.log(H_size) / n)


def _log_size_ratio(theta: float, n: int, H_size: int, *, cell: bool) -> float:
    """ln(θ²·n/ln|H|), the size term of theorem1, gkl20-lower and the per-cell rules.

    The ratio must be a finite float above 1: at or below 1 the term is not
    positive.  With ``cell``, θ is a margin cell's upper endpoint θ_{i+1}.
    """
    ratio = theta**2 * n / math.log(H_size)
    if not math.isfinite(ratio):
        raise ValueError("theta^2*n/ln|H| is too large for a float")
    if ratio <= 1.0:
        raise PreconditionError(
            f"{'theta cell upper endpoint' if cell else 'theta ='} {theta} is too small: "
            f"theta^2*n/ln|H| = {ratio:.6g} must exceed 1"
        )
    return math.log(ratio)


@dataclass(frozen=True)
class BoundInputs:
    """Shared arguments of every bound evaluator.

    ``c``, required, is the universal-constant knob; comparisons across
    bounds are only meaningful at matched ``c``.
    """

    n: int
    H_size: int
    theta: float
    delta: float
    loss: float
    c: float

    def __post_init__(self):
        _check_count(self.n, "n")
        _check_count(self.H_size, "H_size", 2)
        _check_real(self.theta, "theta", 0, 1, lo_open=True)
        _check_real(self.delta, "delta", 0, 1, lo_open=True, hi_open=True)
        _check_real(self.loss, "loss", 0, 1)
        _check_real(self.c, "c", 0, math.inf, hi_open=True)
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
        return _log_size_ratio(self.theta, self.n, self.H_size, cell=False)

    @property
    def delta_term(self) -> float:
        """ln(e/δ)/n."""
        return (1.0 - math.log(self.delta)) / self.n


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound, split into its additive pieces.

    value = loss_offset + sqrt_term + log_term + delta_term; deviation is
    the value with the loss offset removed, i.e. the bound on the
    generalization gap itself.  A term that is not finite is refused.
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
    floor = admissible_theta_floor(inputs.n, inputs.H_size)
    if inputs.theta <= floor:
        raise PreconditionError(
            f"theta = {inputs.theta} is at or below the admissible floor "
            f"sqrt(e*ln|H|/n) = {floor:.6g}"
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

    Requires θ²n/ln|H| > 1, as the per-cell rules do: at or below 1 the log
    term is not positive.  Outside its parameter regime (τ > 1/|H|, θ < c,
    ln|H|/(c·θ²) ≤ n) the value is still computed and the violated
    conditions are reported as warnings on the report.
    """
    tau = _check_real(tau, "tau", 0, 1, lo_open=True)
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


def all_reports(inputs: BoundInputs, tau) -> dict:
    """Every applicable bound, keyed by name; inapplicable ones map to a reason.
    gkl20-lower is evaluated at ``tau``, or left out when ``tau`` is None."""
    out = {"sfbl98": sfbl98_report(inputs), "gz13": gz13_report(inputs)}
    guarded = {"breiman": breiman_report, "theorem1": theorem1_report}
    if tau is not None:
        guarded["gkl20-lower"] = lambda inputs: gkl20_lower_report(inputs, tau)
    for name, report in guarded.items():
        try:
            out[name] = report(inputs)
        except PreconditionError as exc:
            out[name] = str(exc)
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

    def contains(self, x):
        """Whether x lies in the cell; elementwise when x is an array."""
        above_lo = self.lo <= x if self.closed_left else self.lo < x
        return above_lo & (x <= self.hi)


@dataclass(frozen=True)
class PartitionScheme:
    """Dyadic margin cells and loss cells for one (n, |H|) pair."""

    n: int
    H_size: int
    theta_cells: tuple
    loss_cells: tuple

    def locate_theta(self, theta: float) -> PartitionCell:
        theta = _check_real(theta, "theta", self.theta_cells[0].lo, 1, lo_open=True)
        return next(cell for cell in self.theta_cells if cell.contains(theta))

    def locate_loss(self, loss: float) -> PartitionCell:
        loss = _check_real(loss, "loss", 0, 1)
        return next(cell for cell in self.loss_cells if cell.contains(loss))


def _dyadic_cells(cells: list, edge) -> tuple:
    """``cells`` extended with (edge(i−1), edge(i)], i = len(cells), len(cells) + 1, …
    until an upper end reaches 1; that last cell is clipped at 1."""
    while not cells or cells[-1].hi_dyadic < 1.0:
        i = len(cells)
        hi_dyadic = edge(i)
        cells.append(PartitionCell(index=i, lo=edge(i - 1), hi=min(hi_dyadic, 1.0), hi_dyadic=hi_dyadic))
    return tuple(cells)


def build_partition(n: int, H_size: int) -> PartitionScheme:
    """Cover (√(e·ln|H|/n), 1] with margin cells and [0, 1] with loss cells.

    Both families are dyadic, each cell's upper end twice its lower end, and
    their last cell is clipped at 1.  Margin cells are
    Θ_i = (e·2^{i−1}·s, e·2^i·s], s = √(ln|H|/n), from i = 0, so coverage
    reaches down past the admissible floor √e·s (the i ≥ 1 family alone
    starts at e·s and would leave a gap).  Loss cells are L_0 = [0, 1/n] and
    L_j = (2^{j−1}/n, 2^j/n].  n is at most 2^1023, so that every 2^j/n up
    to the last is a float.
    """
    _check_count(n, "n")
    _check_count(H_size, "H_size", 2)
    if n > 2**1023:
        raise ValueError(f"n = {n} is above 2**1023: the last loss cell's end 2^j/n overflows")
    log_H = math.log(H_size)
    if n < math.e * log_H:
        raise ValueError(
            f"empty margin range: n = {n} is below e*ln|H| = {math.e * log_H:.6g}"
        )
    s = math.sqrt(log_H / n)
    first_loss = PartitionCell(index=0, lo=0.0, hi=1.0 / n, hi_dyadic=1.0 / n, closed_left=True)
    return PartitionScheme(
        n=int(n),
        H_size=int(H_size),
        theta_cells=_dyadic_cells([], lambda i: math.e * 2.0**i * s),
        loss_cells=_dyadic_cells([first_loss], lambda j: 2.0**j / n),
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


def delta_allocation(delta: float, scheme: PartitionScheme) -> DeltaAllocation:
    """Split δ across the cells of a partition, at its own n and |H|.

    Pair budgets: δ_{i,j} = (δ/e)³·exp(−ln(e/l_{j+1})·ln|H|/θ_{i+1}²).
    Margin-cell budgets: δ_i = (δ/e)³·exp(−ln(e·θ_{i+1}²·n)·ln|H|/θ_{i+1}²).
    Dyadic endpoints are used throughout.
    """
    delta = _check_real(delta, "delta", 0, 1, lo_open=True, hi_open=True)
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


def _chosen_N(raw: float, floor: float) -> int:
    """⌈max(raw, floor)⌉, refused unless the tails accept it (N ≤ 2^53)."""
    size = max(raw, floor)
    if not size <= 2**53:
        raise ValueError(f"chosen N = {size:.6g} is above 2**53, the largest N the tails accept")
    return math.ceil(size)


def choose_N_main(theta_next: float, loss_next: float, c: float) -> int:
    """Discretization size for the per-cell deviation statement.

    N = ceil(c·θ_{i+1}⁻²·ln(e/l_{j+1})), clamped up to the precondition
    floor 32·θ_{i+1}⁻².  Both arguments are dyadic upper endpoints and may
    exceed 1 (never 2).  An N above 2^53, which no tail accepts, is refused.
    """
    theta_next = _check_real(theta_next, "theta_next", 0, 2, lo_open=True)
    loss_next = _check_real(loss_next, "loss_next", 0, 2, lo_open=True)
    c = _check_real(c, "c", 0, math.inf, lo_open=True, hi_open=True)
    raw = c * _inverse_square(theta_next) * math.log(math.e / loss_next)
    floor = _slope_threshold(theta_next / 2.0)  # θ_{i+1} = 2θ_i
    return _chosen_N(raw, floor)


def choose_N_within_const(theta_next: float, n: int, H_size: int) -> int:
    """Discretization size for the uniform half-loss comparison statement.

    N = ceil(2¹¹·θ_{i+1}⁻²·ln(θ_{i+1}²·n/ln|H|)), clamped up to the
    precondition floor 64·θ_{i+1}⁻².  Requires θ_{i+1}²·n > ln|H|.  An N
    above 2^53, which no tail accepts, is refused.
    """
    theta_next = _check_real(theta_next, "theta_next", 0, 2, lo_open=True)
    _check_count(n, "n")
    _check_count(H_size, "H_size", 2)
    raw = 2.0**11 * _inverse_square(theta_next) * _log_size_ratio(theta_next, n, H_size, cell=True)
    floor = 64.0 * _inverse_square(theta_next)
    return _chosen_N(raw, floor)
