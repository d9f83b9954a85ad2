"""Empirical Rademacher complexity of finite ±1 classes.

Three views of the same quantity: a Monte Carlo estimator (exact supremum
over the class per sign draw), an exhaustive oracle that sums the exact
supremum over all 2ⁿ sign vectors in integer arithmetic, and the
finite-class comparator √(2·ln|H|/n).  The oracle forms only half of the
vectors, because sup_h⟨−σ, h⟩ = −min_h⟨σ, h⟩, and builds their
correlations by doubling a table instead of multiplying by a sign matrix,
so it costs O(2ⁿ⁻¹·|H|).  A fourth check confirms the convexity collapse:
the supremum over the ±1 class equals the supremum over its convex hull, so
voting classifiers add no complexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HypothesisClass, LabeledSample, PreconditionError

__all__ = [
    "RademacherEstimate",
    "empirical_rademacher",
    "exhaustive_rademacher",
    "massart_bound",
    "convexity_collapse_check",
    "EXHAUSTIVE_LIMIT",
]

#: Largest sample size the exhaustive oracle will enumerate (2ⁿ vectors).
EXHAUSTIVE_LIMIT = 20

#: Sample points resolved by the exhaustive oracle's doubling table of
#: |H|·2^16 int8 correlations (64 KiB per hypothesis).
_TABLE_BITS = 16


@dataclass(frozen=True)
class RademacherEstimate:
    """An estimate of (1/n)·E_σ[sup_h Σ σ_i·h(x_i)]."""

    value: float
    std_error: float
    trials: int
    mode: str

    def __post_init__(self):
        if self.mode not in ("monte-carlo", "exhaustive"):
            raise ValueError(f"mode must be monte-carlo or exhaustive, got {self.mode!r}")
        if self.mode == "exhaustive" and self.std_error != 0.0:
            raise ValueError("exhaustive estimates are exact; std_error must be 0")


def empirical_rademacher(
    H: HypothesisClass, S: LabeledSample, trials: int = 10_000, rng_seed=None
) -> RademacherEstimate:
    """Monte Carlo estimate: average of sup_h Σ σ_i h(x_i) over sign draws.

    The supremum over the finite class is computed exactly for every draw;
    only the expectation over σ is sampled.  ``rng_seed`` may be an integer
    or a numpy Generator.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(rng_seed)
    values = H.sample_values(S).astype(np.float64)
    n = values.shape[1]
    sups = np.empty(trials, dtype=np.float64)
    chunk = max(1, int(5e7) // max(1, n * len(H)))
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        sigma = rng.integers(0, 2, size=(m, n)).astype(np.float64) * 2.0 - 1.0
        sups[start : start + m] = (sigma @ values.T).max(axis=1)
    per_draw = sups / n
    value = float(per_draw.mean())
    std_error = (
        float(per_draw.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    )
    return RademacherEstimate(
        value=value, std_error=std_error, trials=int(trials), mode="monte-carlo"
    )


def _signed_sums(columns: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Table of start + Σ_i ±columns[:, i] over all 2^k sign choices.

    Built in k doubling steps T ← [T − v_i | T + v_i], so column j of the
    (|H|, 2^k) result takes sign + on v_i exactly when bit i of j is set.
    """
    k = columns.shape[1]
    table = np.empty((columns.shape[0], 1 << k), dtype=start.dtype)
    table[:, 0] = start
    for i in range(k):
        width = 1 << i
        v = columns[:, i : i + 1]
        np.add(table[:, :width], v, out=table[:, width : 2 * width])
        table[:, :width] -= v
    return table


def exhaustive_rademacher(H: HypothesisClass, S: LabeledSample) -> RademacherEstimate:
    """Exact value over all 2ⁿ sign vectors (n ≤ 20), in O(2ⁿ⁻¹·|H|) time.

    Since sup_h⟨−σ, h⟩ = −min_h⟨σ, h⟩, only the 2ⁿ⁻¹ vectors with
    σₙ₋₁ = +1 are formed; each adds max_h − min_h of its correlations.
    Their correlations are a doubling table over the first
    min(n − 1, 16) sample points, plus one offset per sign pattern of the
    remaining points.  Correlations are integers in [−n, n], held exactly
    in int8; the grand total is an exact Python int, so the result is
    correct to one float division.
    """
    n = len(S)
    if n > EXHAUSTIVE_LIMIT:
        raise PreconditionError(
            f"exhaustive enumeration is limited to n <= {EXHAUSTIVE_LIMIT}, got n = {n}"
        )
    values = H.sample_values(S)
    low = min(n - 1, _TABLE_BITS)
    table = _signed_sums(values[:, :low], values[:, n - 1])
    offsets = _signed_sums(
        values[:, low : n - 1], np.zeros(len(H), dtype=values.dtype)
    )
    corr = np.empty_like(table)
    total = 0
    for offset in offsets.T:
        np.add(table, offset[:, None], out=corr)
        total += int(corr.max(axis=0).sum(dtype=np.int64))
        total -= int(corr.min(axis=0).sum(dtype=np.int64))
    count = 1 << n
    return RademacherEstimate(
        value=total / (count * n), std_error=0.0, trials=count, mode="exhaustive"
    )


def massart_bound(H_size: int, n: int) -> float:
    """Finite-class ceiling √(2·ln|H|/n) on the empirical Rademacher value."""
    if not 1 <= H_size < math.inf:
        raise ValueError(f"H_size must be finite and >= 1, got {H_size}")
    if not 1 <= n < math.inf:
        raise ValueError(f"n must be finite and >= 1, got {n}")
    return float(np.sqrt(2.0 * np.log(H_size) / n))


def convexity_collapse_check(
    H: HypothesisClass,
    S: LabeledSample,
    trials: int = 200,
    rng_seed=None,
) -> bool:
    """Per sign draw, sup over random convex combinations never beats sup over H.

    Draws 50 Dirichlet weight vectors over H and checks, for every σ, that
    max_w Σ_i σ_i·(Σ_h w_h·h(x_i)) ≤ max_h Σ_i σ_i·h(x_i) + 1e-9.  Returns
    True iff no violation occurs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(rng_seed)
    values = H.sample_values(S).astype(np.float64)
    n = values.shape[1]
    combos = rng.dirichlet(np.ones(len(H)), size=50)
    sigma = rng.integers(0, 2, size=(trials, n)).astype(np.float64) * 2.0 - 1.0
    corr = sigma @ values.T                      # (trials, |H|)
    sup_class = corr.max(axis=1)
    sup_hull = (corr @ combos.T).max(axis=1)
    return bool((sup_hull <= sup_class + 1e-9).all())
