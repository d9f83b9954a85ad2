"""±1 hypothesis classes, voting classifiers, samples and margin losses.

The domain is {0, …, |X|−1}: a point is its position.  A hypothesis class is
one ±1 matrix with a row per hypothesis and a column per point, which keeps
every quantity downstream (losses, discretization laws, bound experiments)
exactly computable by enumeration.  A labeled sample is held as its domain
size plus two arrays, the positions of its points and their int8 ±1 labels;
a distribution is a sample of distinct atoms plus a probability vector.
Margin-loss comparisons are non-strict: a point whose margin ties the
threshold counts as a loss.
"""

from __future__ import annotations

import math
import numpy as np

__all__ = [
    "C_THETA",
    "WEIGHT_TOL",
    "PreconditionError",
    "HypothesisClass",
    "VotingClassifier",
    "LabeledSample",
    "DataDistribution",
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


def _check_count(value, name: str, lo: int = 1, hi: int | None = None) -> int:
    """``value`` as an int, after checking it is an integer in [lo, hi].

    A float, even an integral one, NaN, ±inf and a bool are refused, so a
    count is never silently truncated or read from a truth value.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < lo
        or (hi is not None and value > hi)
    ):
        if hi is not None:
            rule = f"an integer in [{lo}, {hi}]"
        elif lo == 1:
            rule = "a positive integer"
        else:
            rule = f"an integer >= {lo}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return int(value)


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


class HypothesisClass:
    """An ordered finite class of ±1 hypotheses: row h, column x holds h(x).

    The domain is the column range {0, …, |X|−1}.  ``includes_constants`` is
    true when the all-(+1) and all-(−1) hypotheses each occur exactly once.
    Duplicate constant hypotheses are rejected; duplicates among non-constant
    hypotheses are permitted (|H| counts them).
    """

    __slots__ = ("matrix", "domain_size", "includes_constants", "plus_index", "minus_index")

    def __init__(self, matrix):
        raw = np.asarray(matrix)
        if raw.ndim != 2 or 0 in raw.shape:
            raise ValueError(
                f"hypothesis matrix has shape {raw.shape}; it needs at least one "
                "hypothesis row and one domain column"
            )
        matrix = _check_signs(raw)
        plus_rows = np.flatnonzero((matrix == 1).all(axis=1))
        minus_rows = np.flatnonzero((matrix == -1).all(axis=1))
        if len(plus_rows) > 1 or len(minus_rows) > 1:
            raise ValueError("a constant hypothesis occurs more than once")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.domain_size = int(matrix.shape[1])
        self.includes_constants = len(plus_rows) == 1 and len(minus_rows) == 1
        self.plus_index = int(plus_rows[0]) if len(plus_rows) == 1 else None
        self.minus_index = int(minus_rows[0]) if len(minus_rows) == 1 else None

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def sample_values(self, sample: "LabeledSample") -> np.ndarray:
        """Matrix of h(x_i) with shape (|H|, n), columns in sample order."""
        _check_domain(sample, self.domain_size)
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
        size = _check_count(size, "size")
        index = _check_count(index, "index", 0, size - 1)
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
    """A finite labeled sample over the domain {0, …, domain_size−1}, in order.

    ``positions`` holds each point (intp) and ``labels`` its ±1 label (int8);
    both arrays are read-only.
    """

    __slots__ = ("domain_size", "positions", "labels")

    def __init__(self, domain_size: int, positions, labels):
        domain_size = _check_count(domain_size, "domain_size")
        pos = np.asarray(positions)
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("sample positions must be a 1-d array, at least one point")
        if pos.dtype.kind not in "iu":
            raise ValueError(f"sample positions must be integers, got dtype {pos.dtype}")
        if pos.min() < 0 or pos.max() >= domain_size:
            raise ValueError(f"sample positions must lie in [0, {domain_size})")
        labels = _check_labels(labels)
        if labels.size != pos.size:
            raise ValueError(f"sample has {pos.size} positions but {labels.size} labels")
        pos = pos.astype(np.intp)
        pos.setflags(write=False)
        labels.setflags(write=False)
        self.domain_size = domain_size
        self.positions = pos
        self.labels = labels

    def __len__(self) -> int:
        return int(self.positions.size)


def _check_domain(sample: LabeledSample, domain_size: int) -> None:
    if sample.domain_size != domain_size:
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
        atoms = LabeledSample(sample.domain_size, keys // 2, np.where(keys % 2, 1, -1))
        return cls(atoms, counts / len(sample))

    def __len__(self) -> int:
        return len(self.atoms)

    def sample(self, n: int, rng: np.random.Generator) -> LabeledSample:
        """Draw n i.i.d. atoms."""
        n = _check_count(n, "n")
        idx = rng.choice(len(self), size=n, p=self.probabilities)
        atoms = self.atoms
        return LabeledSample(atoms.domain_size, atoms.positions[idx], atoms.labels[idx])


def _margins_at(values: np.ndarray, S: LabeledSample) -> np.ndarray:
    """y_i·values[x_i] for every point of S, ``values`` given in domain order."""
    _check_domain(S, values.size)
    return S.labels * values[S.positions]


def margins_on_sample(f: VotingClassifier, H: HypothesisClass, S: LabeledSample) -> np.ndarray:
    """Margins y_i·f(x_i) for every sample point, in sample order."""
    return _margins_at(f.values_on(H), S)


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
    constant = np.ones(H.domain_size, dtype=np.int8)
    H_bar = HypothesisClass(np.vstack([H.matrix, constant, -constant]))
    w = np.concatenate([C_THETA * f.weights, [half_rest, half_rest]])
    return VotingClassifier(w), H_bar
