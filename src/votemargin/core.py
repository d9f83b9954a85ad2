"""Finite domains, ±1 hypothesis classes, voting classifiers, margin losses.

Hypotheses are stored as explicit ±1 tables over a finite ordered domain,
which keeps every quantity downstream (losses, discretization laws, bound
experiments) exactly computable by enumeration.  A labeled sample is held as
its domain plus two arrays, the domain positions of its points and their int8
±1 labels; a distribution is a sample of distinct atoms plus a probability
vector.  Margin-loss comparisons are non-strict: a point whose margin ties the
threshold counts as a loss.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "C_THETA",
    "WEIGHT_TOL",
    "PreconditionError",
    "DiscreteDomain",
    "Hypothesis",
    "HypothesisClass",
    "VotingClassifier",
    "LabeledSample",
    "DataDistribution",
    "constant_hypothesis",
    "margin",
    "margins_on_sample",
    "margins_on_support",
    "empirical_margin_loss",
    "true_margin_loss",
    "scale_reduction",
]

#: Global margin-rescaling factor; fixed, not configurable.
C_THETA = 1.0 / math.sqrt(2.0)

#: Tolerance for "sums to one" checks on weights and probabilities.
WEIGHT_TOL = 1e-12


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


def _check_signs(values: np.ndarray, what: str = "hypothesis values") -> np.ndarray:
    """``values`` cast to int8, after checking each entry is exactly +1 or -1.

    The check runs before the cast, so 255 cannot wrap to -1, 1.7 cannot
    truncate to 1, and NaN, ±inf, 1j or a string fail instead of converting.
    """
    if not ((values == 1) | (values == -1)).all():
        raise ValueError(f"{what} must be +1 or -1")
    return values.astype(np.int8)


def _check_labels(labels) -> np.ndarray:
    """The labels as an int8 array, each checked to equal +1 or -1."""
    values = np.asarray(labels)
    if values.ndim != 1:  # each label a sequence of the same length
        raise ValueError("labels must be +1 or -1")
    return _check_signs(values, "labels")


def _check_label(y) -> int:
    return int(_check_labels([y])[0])


def _check_threshold(theta: float) -> float:
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"margin threshold must lie in [0, 1], got {theta}")
    return theta


def _force_unit_sum(w: np.ndarray) -> None:
    """Nudge the largest entry so the float sum is exactly 1.0, in place.

    Division by the total leaves the sum within a few ulps of 1; folding the
    residual into the largest entry (comfortably above ulp scale) makes
    downstream expectations exact without disturbing any other entry.
    """
    for _ in range(4):
        residual = 1.0 - float(w.sum())
        if residual == 0.0:
            return
        w[int(np.argmax(w))] += residual


class DiscreteDomain:
    """A finite ordered collection of distinct, hashable point ids."""

    __slots__ = ("points", "_index")

    def __init__(self, points: Iterable):
        pts = tuple(points)
        if not pts:
            raise ValueError("domain must contain at least one point")
        index = {p: i for i, p in enumerate(pts)}
        if len(index) != len(pts):
            raise ValueError("domain points must be distinct")
        self.points = pts
        self._index = index

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point) -> bool:
        return point in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteDomain) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def position(self, point) -> int:
        """Index of ``point`` in domain order; raises if unknown."""
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"point {point!r} is not in the domain") from None


class Hypothesis:
    """A total ±1 classifier tabulated over a domain."""

    __slots__ = ("domain", "table")

    def __init__(self, domain: DiscreteDomain, values):
        if isinstance(values, Mapping):
            missing = [p for p in domain.points if p not in values]
            if missing:
                raise ValueError(
                    f"hypothesis must be total over the domain; missing {missing[:3]}"
                )
            raw = np.array([values[p] for p in domain.points])
        else:
            raw = np.asarray(values)
            if raw.shape != (len(domain),):
                raise ValueError(
                    f"hypothesis table has shape {raw.shape}, expected ({len(domain)},)"
                )
        self.domain = domain
        self.table = _check_signs(raw)

    def value(self, point) -> int:
        return int(self.table[self.domain.position(point)])

    def as_dict(self) -> dict:
        return {p: int(v) for p, v in zip(self.domain.points, self.table)}


def constant_hypothesis(domain: DiscreteDomain, label: int) -> Hypothesis:
    """The all-(+1) or all-(−1) hypothesis over ``domain``."""
    label = _check_label(label)
    return Hypothesis(domain, np.full(len(domain), label, dtype=np.int8))


class HypothesisClass:
    """An ordered finite class of ±1 hypotheses over a common domain.

    ``includes_constants`` is true when the all-(+1) and all-(−1) hypotheses
    each occur exactly once.  Duplicate constant hypotheses are rejected;
    duplicates among non-constant hypotheses are permitted (|H| counts them).
    """

    __slots__ = ("domain", "matrix", "includes_constants", "plus_index", "minus_index")

    def __init__(self, domain: DiscreteDomain, hypotheses):
        if isinstance(hypotheses, np.ndarray):
            raw = hypotheses
        else:
            rows = []
            for h in hypotheses:
                if isinstance(h, Hypothesis):
                    if h.domain != domain:
                        raise ValueError("hypothesis domain mismatch")
                    rows.append(h.table)
                elif isinstance(h, Mapping):
                    rows.append(Hypothesis(domain, h).table)
                else:
                    rows.append(np.asarray(h))
            if not rows:
                raise ValueError("hypothesis class must be non-empty")
            raw = np.vstack(rows)
        if raw.ndim != 2 or raw.shape[1] != len(domain):
            raise ValueError(
                f"hypothesis matrix has shape {raw.shape}, expected (*, {len(domain)})"
            )
        if raw.shape[0] < 1:
            raise ValueError("hypothesis class must be non-empty")
        matrix = _check_signs(raw)
        plus_rows = np.flatnonzero((matrix == 1).all(axis=1))
        minus_rows = np.flatnonzero((matrix == -1).all(axis=1))
        if len(plus_rows) > 1 or len(minus_rows) > 1:
            raise ValueError("a constant hypothesis occurs more than once")
        matrix.setflags(write=False)
        self.domain = domain
        self.matrix = matrix
        self.includes_constants = len(plus_rows) == 1 and len(minus_rows) == 1
        self.plus_index = int(plus_rows[0]) if len(plus_rows) == 1 else None
        self.minus_index = int(minus_rows[0]) if len(minus_rows) == 1 else None

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def hypothesis(self, i: int) -> Hypothesis:
        return Hypothesis(self.domain, self.matrix[i])

    def sample_values(self, sample: "LabeledSample") -> np.ndarray:
        """Matrix of h(x_i) with shape (|H|, n), columns in sample order."""
        _check_domain(sample, self.domain)
        return self.matrix[:, sample.positions]


class VotingClassifier:
    """Convex weights over a hypothesis class, indexed by hypothesis.

    Weights must be nonnegative and sum to 1 within ``WEIGHT_TOL``; they are
    renormalized to an exact unit sum on construction (boosting updates
    accumulate float error).
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64).copy()
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d array")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 within {WEIGHT_TOL:g}; got sum {total!r}"
            )
        w /= total
        _force_unit_sum(w)
        w.setflags(write=False)
        self.weights = w

    @classmethod
    def point_mass(cls, index: int, size: int) -> "VotingClassifier":
        """All weight on hypothesis ``index`` of a class of ``size``."""
        if not (isinstance(index, (int, np.integer)) and isinstance(size, (int, np.integer))):
            raise ValueError(f"index and size must be integers, got {index!r} and {size!r}")
        if not 0 <= index < size:
            raise ValueError(f"index must lie in [0, {size}), got {index}")
        w = np.zeros(size, dtype=np.float64)
        w[index] = 1.0
        return cls(w)

    def __len__(self) -> int:
        return int(self.weights.size)

    def values_on(self, H: HypothesisClass) -> np.ndarray:
        """f(x) for every domain point, in domain order."""
        if len(self) != len(H):
            raise ValueError(
                f"classifier has {len(self)} weights but class has {len(H)} hypotheses"
            )
        # A convex combination of ±1 values lies in [-1, 1]; the float dot
        # product can overshoot by one ulp, so clamp back to the exact range.
        return np.clip(self.weights @ H.matrix, -1.0, 1.0)


class LabeledSample:
    """A finite labeled sample over a domain, order preserved.

    ``positions`` holds the domain index of each point (intp) and ``labels``
    its ±1 label (int8); both arrays are read-only.
    """

    __slots__ = ("domain", "positions", "labels")

    def __init__(self, domain: DiscreteDomain, positions, labels):
        pos = np.asarray(positions)
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("sample positions must be a 1-d array, at least one point")
        if pos.dtype.kind not in "iu":
            raise ValueError(f"sample positions must be integers, got dtype {pos.dtype}")
        if pos.min() < 0 or pos.max() >= len(domain):
            raise ValueError(f"sample positions must lie in [0, {len(domain)})")
        labels = _check_labels(labels)
        if labels.size != pos.size:
            raise ValueError(f"sample has {pos.size} positions but {labels.size} labels")
        pos = pos.astype(np.intp)
        pos.setflags(write=False)
        labels.setflags(write=False)
        self.domain = domain
        self.positions = pos
        self.labels = labels

    def __len__(self) -> int:
        return int(self.positions.size)


def _check_domain(sample: LabeledSample, domain: DiscreteDomain) -> None:
    if sample.domain is not domain and sample.domain != domain:
        raise ValueError("sample domain differs from the hypothesis class domain")


def _keys(sample: LabeledSample) -> np.ndarray:
    """One integer per (position, label) pair: 2·position + (label > 0)."""
    return 2 * sample.positions + (sample.labels > 0)


class DataDistribution:
    """An explicit distribution: a sample of distinct atoms and their masses.

    Probabilities must be nonnegative and sum to 1 within ``WEIGHT_TOL``;
    they are renormalized exactly on construction so losses computed from the
    distribution are exact expectations.
    """

    __slots__ = ("atoms", "probabilities")

    def __init__(self, atoms: LabeledSample, probabilities):
        if np.unique(_keys(atoms)).size != len(atoms):
            raise ValueError("distribution atoms must be distinct")
        probs = np.array(probabilities, dtype=np.float64)
        if probs.shape != (len(atoms),):
            raise ValueError(f"probabilities have shape {probs.shape}, not ({len(atoms)},)")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(
                f"probabilities must sum to 1 within {WEIGHT_TOL:g}; got sum {total!r}"
            )
        probs /= total
        _force_unit_sum(probs)
        probs.setflags(write=False)
        self.atoms = atoms
        self.probabilities = probs

    @classmethod
    def empirical(cls, sample: LabeledSample) -> "DataDistribution":
        """The empirical distribution of a sample (atom mass = frequency), sorted."""
        keys, counts = np.unique(_keys(sample), return_counts=True)
        atoms = LabeledSample(sample.domain, keys // 2, np.where(keys % 2, 1, -1))
        return cls(atoms, counts / len(sample))

    def __len__(self) -> int:
        return len(self.atoms)

    def sample(self, n: int, rng: np.random.Generator) -> LabeledSample:
        """Draw n i.i.d. atoms."""
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        idx = rng.choice(len(self), size=int(n), p=self.probabilities)
        atoms = self.atoms
        return LabeledSample(atoms.domain, atoms.positions[idx], atoms.labels[idx])


def margin(f: VotingClassifier, H: HypothesisClass, x, y) -> float:
    """The margin y·f(x) ∈ [−1, 1] of a single labeled point."""
    y = _check_label(y)
    pos = H.domain.position(x)
    return float(y) * float(f.values_on(H)[pos])


def _margins_at(values: np.ndarray, domain: DiscreteDomain, S: LabeledSample) -> np.ndarray:
    """y_i·values[x_i] for every point of S, ``values`` given in domain order."""
    _check_domain(S, domain)
    return S.labels * values[S.positions]


def margins_on_sample(f: VotingClassifier, H: HypothesisClass, S: LabeledSample) -> np.ndarray:
    """Margins y_i·f(x_i) for every sample point, in sample order."""
    return _margins_at(f.values_on(H), H.domain, S)


def margins_on_support(f: VotingClassifier, H: HypothesisClass, D: DataDistribution):
    """(margins, probabilities) over the atoms of D, in atom order."""
    return margins_on_sample(f, H, D.atoms), D.probabilities


def empirical_margin_loss(f: VotingClassifier, H: HypothesisClass, S: LabeledSample, theta: float) -> float:
    """Fraction of sample points with margin ≤ θ (ties count as losses).

    θ = 0 gives the empirical 0-1 loss.
    """
    theta = _check_threshold(theta)
    m = margins_on_sample(f, H, S)
    return float(np.count_nonzero(m <= theta)) / m.size


def true_margin_loss(f: VotingClassifier, H: HypothesisClass, D: DataDistribution, theta: float) -> float:
    """Pr over D of margin ≤ θ, computed exactly over the atoms of D."""
    theta = _check_threshold(theta)
    m, p = margins_on_support(f, H, D)
    return float(p[m <= theta].sum())


def scale_reduction(f: VotingClassifier, H: HypothesisClass):
    """Rescale f toward the constants: f̄ = c_θ·f + ((1−c_θ)/2)·(h₊ + h₋).

    Every margin scales by exactly c_θ (the constants cancel in y·f̄(x)), so
    sign decisions are preserved while margins land in [−c_θ, c_θ].  Returns
    (f̄, H̄) where H̄ extends H with the two constant hypotheses unless they
    are already present.
    """
    if len(f) != len(H):
        raise ValueError(
            f"classifier has {len(f)} weights but class has {len(H)} hypotheses"
        )
    half_rest = (1.0 - C_THETA) / 2.0
    if H.includes_constants:
        w = C_THETA * f.weights
        w = w.copy()
        w[H.plus_index] += half_rest
        w[H.minus_index] += half_rest
        return VotingClassifier(w), H
    extended = np.vstack(
        [
            H.matrix,
            np.ones(len(H.domain), dtype=np.int8),
            -np.ones(len(H.domain), dtype=np.int8),
        ]
    )
    H_bar = HypothesisClass(H.domain, extended)
    w = np.concatenate([C_THETA * f.weights, [half_rest, half_rest]])
    return VotingClassifier(w), H_bar
