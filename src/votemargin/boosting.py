"""AdaBoost over finite stump classes and synthetic tasks with exact losses.

The stump class over a d-dimensional integer lattice contains both
polarities of every axis-aligned threshold stump plus the two constant
hypotheses, so |H| = 2·d·k + 2 exactly and margin rescaling never needs to
extend the class.  Synthetic tasks carry an explicit distribution, so true
margin losses of boosted classifiers are exact expectations rather than
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scalar import _check_count, _check_real
from .core import (
    DataDistribution,
    HypothesisClass,
    LabeledSample,
    VotingClassifier,
    _check_domain,
    _empirical_margin_loss,
    _generator,
    margins_on_sample,
)

__all__ = [
    "build_stump_class",
    "generate_synthetic",
    "BoostingRound",
    "BoostingRun",
    "adaboost",
    "MarginHistogram",
    "margin_histogram",
    "EPSILON_CLAMP",
    "STUMP_CLASS_LIMIT",
]

#: Weighted-error clamp keeping α_t finite on perfect or hopeless stumps,
#: and the slack within which an error counts as ½: a sum of weights that is
#: ½ exactly may round to either side of it, by the order of its terms.
EPSILON_CLAMP = 1e-12

#: Most entries (2·d·k + 2)·(k+1)^d of a stump class matrix, one byte each:
#: 64 MiB.  The (4, 15) class of the default workloads has 7 995 392.  A
#: class costs its one matrix, plus n bytes per hypothesis ``adaboost``
#: picks (|H|·n at most) and O(|X|) distribution arrays in
#: ``generate_synthetic``.  (4, 23), the largest class of d = 4 under the
#: limit (58.8 MiB), builds at a 58.9 MiB peak, and its build, task and
#: 400 rounds at n = 20 000 peak at 75.7 MiB (tracemalloc).
STUMP_CLASS_LIMIT = 2**26


def _lattice_coordinate(positions: np.ndarray, axis: int, d: int, k: int) -> np.ndarray:
    """Coordinate ``axis`` of the lattice points at ``positions`` in {0..k}^d.

    It is the position's base-(k+1) digit number ``axis``, most significant
    first.
    """
    return positions // (k + 1) ** (d - 1 - axis) % (k + 1)


def _stump_table(k: int) -> np.ndarray:
    """The int8 table ±1{v ≤ t}, t = 0..k−1 by v = 0..k, shaped (k, 1, k+1, 1)
    to broadcast against ``_feature_rows``."""
    table = np.where(np.arange(k + 1) <= np.arange(k)[:, None], np.int8(1), np.int8(-1))
    return table[:, None, :, None]


def _feature_rows(rows: np.ndarray, a: int, d: int, k: int) -> np.ndarray:
    """Feature a's k stump rows of ``rows`` (from its first row on), viewed as
    (k, (k+1)^a, k+1, (k+1)^(d−1−a)): axis 2 is the coordinate x_a of a
    column, since it is the column's base-(k+1) digit number a."""
    return rows[a * k:(a + 1) * k].reshape(k, (k + 1) ** a, k + 1, (k + 1) ** (d - 1 - a))


def build_stump_class(d: int, k: int) -> HypothesisClass:
    """Axis-aligned threshold stumps over the lattice {0..k}^d.

    The class holds, for every feature a and integer threshold t < k, the
    stump 1{x_a ≤ t} in both polarities, plus the two constants:
    |H| = 2·d·k + 2.  The domain is the (k+1)^d lattice points in
    lexicographic order: position p is the point whose base-(k+1) digits,
    most significant first, are its d coordinates.  Rows: positive stumps
    feature-major/threshold-ascending, then the matching negatives, then
    the constant +1 and constant −1 hypotheses.

    A class of more than ``STUMP_CLASS_LIMIT`` matrix entries is refused
    with ``ValueError`` before anything is allocated.  The rows are written
    in place and the class adopts the matrix, so the build holds that one
    matrix and nothing else of its size.
    """
    d = _check_count(d, "d")
    k = _check_count(k, "k")
    dk = d * k
    entries = (2 * dk + 2) * (k + 1) ** d
    if entries > STUMP_CLASS_LIMIT:
        raise ValueError(
            f"a stump class is limited to STUMP_CLASS_LIMIT = {STUMP_CLASS_LIMIT} matrix "
            f"entries, and d = {d}, k = {k} needs (2dk + 2)(k + 1)^d = {entries}"
        )
    matrix = np.empty((2 * dk + 2, (k + 1) ** d), dtype=np.int8)
    table = _stump_table(k)
    for a in range(d):
        _feature_rows(matrix, a, d, k)[...] = table
    np.negative(matrix[:dk], out=matrix[dk:2 * dk])
    matrix[-2] = 1
    matrix[-1] = -1
    return HypothesisClass._adopt(matrix)


def _constants_last(H: HypothesisClass) -> bool:
    """Whether H is at least one row followed by the constant +1 and −1 rows."""
    m = H.matrix
    return len(m) > 2 and m[-2].min() == 1 and m[-1].max() == -1


def _stump_shape(H: HypothesisClass):
    """(d, k) if H is exactly ``build_stump_class(d, k)``, else None.

    The shape fixes (d, k): |H| = 2·d·k + 2 and |X| = (k+1)^d have at most
    one solution, since ln(k+1)/k falls as k grows.  Every stump row is then
    checked against the lattice through a view of its row: the class holds
    ±1 entries only, so the part at x_a ≤ t is all +1 iff its minimum is 1,
    and the part above all −1 iff its maximum is −1 (the negations the other
    way).  Four reductions per row allocate no array of the row's size; at
    (4, 15) the check takes 1.7 ms.
    """
    rows, size = H.matrix.shape
    if rows % 2 or not _constants_last(H):
        return None
    dk = (rows - 2) // 2
    d = next((d for d in range(1, dk + 1) if dk % d == 0 and (dk // d + 1) ** d == size), None)
    if d is None:
        return None
    k = dk // d
    for a in range(d):
        positive = _feature_rows(H.matrix, a, d, k)
        negative = _feature_rows(H.matrix[dk:], a, d, k)
        for t in range(k):
            # ±1 entries: a min of 1 means all +1, a max of −1 all −1
            if not (
                positive[t, :, :t + 1].min() == 1 == negative[t, :, t + 1:].min()
                and positive[t, :, t + 1:].max() == -1 == negative[t, :, :t + 1].max()
            ):
                return None
    return d, k


def _stump_errors(keys: list, w: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write the weighted error of every row of a stump class into ``out``.

    ``keys[a]`` holds 2·x_a + (y_i > 0) for every sample point.  Per feature
    a, one weighted ``np.bincount`` adds the w_i, in sample order, into
    ``mass[a, v, c]``: the weight on points with x_a = v and label −1 (c = 0)
    or +1 (c = 1).  Cumulative sums over v, for all features at once, then
    give per label the mass at x_a ≤ t (v ascending from 0) and at x_a > t
    (v descending from k).  The stump 1{x_a ≤ t} errs on the label −1 mass
    at or below t plus the label +1 mass above it; its negation on the other
    two.  The constant +1 errs on all label −1 mass and the constant −1 on
    all label +1 mass: the totals of feature 0's ascending sums.  No error
    is taken as 1 minus another.
    """
    dk = len(keys) * k
    mass = np.empty((len(keys), 2 * (k + 1)))
    for a, key in enumerate(keys):
        mass[a] = np.bincount(key, weights=w, minlength=2 * (k + 1))
    mass = mass.reshape(-1, k + 1, 2)
    below = np.cumsum(mass, axis=1)  # [a, v]: mass at x_a <= v
    above = np.cumsum(mass[:, :0:-1], axis=1)[:, ::-1]  # [a, t]: mass at x_a > t
    np.add(below[:, :-1, 0], above[:, :, 1], out=out[:dk].reshape(-1, k))
    np.add(below[:, :-1, 1], above[:, :, 0], out=out[dk:2 * dk].reshape(-1, k))
    out[-2:] = below[0, -1]


def generate_synthetic(H: HypothesisClass, n: int, noise: float, rng_seed):
    """A stump-majority task over a class from ``build_stump_class``.

    Ground truth is the majority vote of up to five distinct random
    non-constant stumps (an odd number, so never a tie).  Each lattice point
    carries mass (1−noise)/|X| on its true label and noise/|X| on the flip.
    Returns (distribution, i.i.d. sample of size n); deterministic given the
    seed.
    """
    noise = _check_real(noise, "noise", 0, 0.5, hi_open=True)
    n = _check_count(n, "n")
    num_stumps = len(H) - 2
    if not _constants_last(H):
        raise ValueError("H must be a stump class: stumps, then the +1 and -1 constants")
    rng = _generator(rng_seed)
    count = min(5, num_stumps)
    if count % 2 == 0:
        count -= 1
    chosen = rng.choice(num_stumps, size=count, replace=False)
    # a sum of at most 5 rows of ±1 is exact in int8, and odd, so never 0
    truth = np.sign(H.matrix[chosen].sum(axis=0, dtype=np.int8))

    # Atoms point-major: each point's true label, then its flip when noisy.
    # The atoms adopt the fresh arrays, so no copy of them is made.
    size = H.domain_size
    per_point = 2 if noise > 0.0 else 1
    D = DataDistribution(
        LabeledSample._adopt(
            size,
            np.repeat(np.arange(size), per_point),
            np.stack([truth, -truth], axis=1)[:, :per_point].ravel(),
        ),
        np.tile([(1.0 - noise) / size, noise / size][:per_point], size),
    )
    S = D.sample(n, rng)
    return D, S


@dataclass(frozen=True)
class BoostingRound:
    """One completed boosting round and the aggregate's statistics after it."""

    round: int
    hypothesis: int
    epsilon: float
    alpha: float
    train_error: float
    min_margin: float
    exp_loss: float


@dataclass(frozen=True)
class BoostingRun:
    """A full training trace plus the final normalized voting classifier."""

    rounds: tuple
    classifier: VotingClassifier
    status: str

    @property
    def T_completed(self) -> int:
        return len(self.rounds)


def adaboost(S: LabeledSample, H: HypothesisClass, T: int) -> BoostingRun:
    """Standard exponential-weights boosting over a finite class.

    Each round selects the hypothesis with the smallest weighted error
    (ties broken by lowest index) and sets α_t = ½·ln((1−ε_t)/ε_t) with ε_t
    clamped away from {0, 1}.  A perfect hypothesis ends the run with all
    weight on it; if no hypothesis beats error ½ by more than
    ``EPSILON_CLAMP`` the run stops early, so an error of exactly ½ stops it
    whichever way its sum rounds.  The algorithm is deterministic.

    Every weighted error is a sum in one fixed order, with no BLAS call, so
    the bits depend neither on the BLAS library nor on its thread count.  On
    a class that is exactly ``build_stump_class(d, k)`` they come from
    per-feature label masses (see ``_stump_errors``).  On any other class,
    ε_h = Σ_i w_i·[h(x_i) ≠ y_i] is accumulated over the sample in sample
    order, i = 0 first, from an int8 mismatch matrix (a one-row class gets
    ``np.einsum``'s own summation loop).  The only |H|×n matrix is that int8
    mismatch matrix, for a class that is not a stump class.

    A round costs one ``np.bincount`` per feature (or one pass over the
    mismatch matrix) plus a fixed number of passes over contiguous float
    n-vectors: the picked row of y_i·h(x_i), an int8 row gathered the first
    time its hypothesis is picked and kept, is cast once into the step ±α_t
    that updates the scores and the weights.  The kept rows are at most
    min(T, |H|)·n bytes: the (4, 15) run of the ``adaboost`` experiment at
    n = 20 000 and seed 2 picks 51 of its 122 hypotheses in 400 rounds, and
    its tracemalloc peak above the class and sample is 2.49 MiB.  That run
    takes 119 ms (least of 5 runs, a 2-core x86 host).

    Final weights aggregate the α's per distinct hypothesis and normalize,
    so the product is a valid voting classifier over H.
    """
    T = _check_count(T, "T")
    n = len(S)
    _check_domain(S, H.domain_size)
    shape = _stump_shape(H)
    agreement = {}  # picked hypothesis -> its row y_i·h(x_i), exactly ±1
    w = np.full(n, 1.0 / n)
    if shape is None:
        # sample-major, so einsum's loop adds the terms of each ε in sample order
        mismatch = np.ascontiguousarray((H.sample_values(S) != S.labels).T, dtype=np.int8)
    else:
        d, k = shape
        keys = [
            2 * _lattice_coordinate(S.positions, a, d, k) + (S.labels > 0) for a in range(d)
        ]
        eps_all = np.empty(len(H))

    score = np.zeros(n)  # y_i·Σ_t α_t·h_t(x_i)
    alphas = []
    picks = []
    rounds = []
    status = "completed"

    for t in range(1, T + 1):
        if shape is None:
            eps_all = np.einsum("ji,j->i", mismatch, w)
        else:
            _stump_errors(keys, w, k, eps_all)
        best = int(np.argmin(eps_all))
        eps = float(eps_all[best])
        if eps >= 0.5 - EPSILON_CLAMP:
            status = "early-stop"
            break
        eps_c = min(max(eps, EPSILON_CLAMP), 1.0 - EPSILON_CLAMP)
        alpha = 0.5 * math.log((1.0 - eps_c) / eps_c)
        picks.append(best)
        alphas.append(alpha)
        if best not in agreement:
            agreement[best] = H.matrix[best].take(S.positions) * S.labels
        step = agreement[best].astype(np.float64)
        step *= alpha  # exactly ±α
        score += step
        # Division by Σα > 0 is monotone and rounds no nonzero score (≥ 2^-91,
        # a multiple of ulp(min α)) to 0: the statistics need no n-vector of margins.
        rounds.append(
            BoostingRound(
                round=t,
                hypothesis=best,
                epsilon=eps,
                alpha=alpha,
                train_error=_empirical_margin_loss(score, 0.0),
                min_margin=float(score.min()) / math.fsum(alphas),
                exp_loss=float(np.exp(-score).mean()),
            )
        )
        if eps == 0.0:
            status = "perfect-hypothesis"
            break
        w *= np.exp(np.negative(step, out=step), out=step)
        w /= w.sum()

    if not rounds:
        # no usable round at all: fall back to the flat vote so the run
        # still carries a valid classifier alongside its early-stop status
        classifier = VotingClassifier(np.full(len(H), 1.0 / len(H)))
    elif status == "perfect-hypothesis":
        classifier = VotingClassifier.point_mass(picks[-1], len(H))
    else:
        totals = np.bincount(picks, weights=alphas, minlength=len(H))
        classifier = VotingClassifier(totals / totals.sum())
    return BoostingRun(rounds=tuple(rounds), classifier=classifier, status=status)


@dataclass(frozen=True)
class MarginHistogram:
    """Counts of sample margins over uniform right-closed bins of [−1, 1]."""

    edges: tuple
    counts: tuple

    @property
    def n(self) -> int:
        return int(sum(self.counts))

    def cumulative_fraction(self) -> np.ndarray:
        """Fraction of margins ≤ each interior/upper edge (edges[1:]).

        Because bins are right-closed, the value at an edge that lies in
        [0, 1] equals the empirical margin loss at that threshold exactly.
        """
        return np.cumsum(self.counts) / self.n


def margin_histogram(
    f: VotingClassifier, H: HypothesisClass, S: LabeledSample, bin_count: int
) -> MarginHistogram:
    """Histogram of y_i·f(x_i) over ``bin_count`` uniform bins of [−1, 1].

    Bins are right-closed — bin b covers (edges[b], edges[b+1]], with the
    lowest bin additionally including −1 — so the cumulative count at any
    edge θ equals n·empirical_margin_loss(f, H, S, θ).
    """
    bin_count = _check_count(bin_count, "bin_count", 2)
    edges = np.linspace(-1.0, 1.0, bin_count + 1)
    m = margins_on_sample(f, H, S)
    idx = np.searchsorted(edges, m, side="left") - 1
    np.clip(idx, 0, bin_count - 1, out=idx)
    counts = np.bincount(idx, minlength=bin_count)
    return MarginHistogram(edges=tuple(edges.tolist()), counts=tuple(int(c) for c in counts))
