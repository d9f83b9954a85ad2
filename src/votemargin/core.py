"""±1 hypothesis classes, voting classifiers, samples and margin losses.

The domain is {0, …, |X|−1}: a point is its position.  A hypothesis class is
one ±1 matrix with a row per hypothesis and a column per point, which keeps
every quantity downstream (losses, discretization laws, bound experiments)
exactly computable by enumeration.  A labeled sample is held as its domain
size plus two arrays, the positions of its points and their int8 ±1 labels;
a distribution is a sample of distinct atoms plus a probability vector.
The margin and loss functions take either voter, a VotingClassifier or a
``discretize.DiscretizedClassifier``: both answer ``values_on(H)``.
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
]

#: Half-width c_θ of the margin range on which φ and ρ are defined.  The
#: analysis rescales a voter toward the two constant hypotheses, which scales
#: every margin by c_θ, so the margins it feeds to φ and ρ lie in [−c_θ, c_θ].
C_THETA = 1.0 / math.sqrt(2.0)

#: Tolerance for "sums to one" checks on weights and probabilities.
WEIGHT_TOL = 1e-12


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


def _require_signs(values: np.ndarray, what: str) -> None:
    """Refuse ``values`` unless each entry is exactly +1 or -1.

    An integer array is checked by its minimum, maximum and count of nonzero
    entries, three reductions with no temporary array; any other dtype is
    compared entry by entry.
    """
    if values.dtype.kind in "iu":
        signs = values.size == 0 or (
            int(values.min()) >= -1
            and int(values.max()) <= 1
            and np.count_nonzero(values) == values.size
        )
    else:
        signs = ((values == 1) | (values == -1)).all()
    if not signs:
        raise ValueError(f"{what} must be +1 or -1")


def _check_signs(values: np.ndarray, what: str = "hypothesis values") -> np.ndarray:
    """``values`` cast to int8, after checking each entry is exactly +1 or -1.

    The check runs before the cast, so 255 cannot wrap to -1, 1.7 cannot
    truncate to 1, and NaN, ±inf, 1j or a string fail instead of converting.
    """
    _require_signs(values, what)
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
    count is never silently truncated or read from a truth value; so is an
    integer no float can hold, since the formulas read counts as floats.
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
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} has {len(str(value))} digits, too many for a float") from None
    return int(value)


def _generator(rng_seed) -> np.random.Generator:
    """The generator of an integer seed or a Generator; None draws unseeded, so it is refused."""
    if rng_seed is None:
        raise ValueError("rng_seed is required: None would draw from an unseeded generator")
    return np.random.default_rng(rng_seed)


#: Python and numpy scalar types a real argument may have (bool aside).
_REAL_TYPES = (int, float, np.integer, np.floating)


def _check_real(value, name: str, lo, hi, lo_open: bool = False, hi_open: bool = False) -> float:
    """``value`` as a float, after checking it is a finite real number in range.

    A Python or numpy int or float passes if it lies in the interval from lo
    to hi, which holds each end unless ``lo_open`` or ``hi_open`` says not.
    A bool, str, complex or array is refused, and so are NaN and ±inf.  The
    message prints lo and hi exactly as the caller passes them.
    """
    real = isinstance(value, _REAL_TYPES) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int no float holds
        x = math.nan
    if not (
        math.isfinite(x)
        and (lo < x if lo_open else lo <= x)
        and (x < hi if hi_open else x <= hi)
    ):
        shown = value if real else repr(value)
        raise ValueError(
            f"{name} must lie in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}, "
            f"got {shown}"
        )
    return x


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as an array, after checking its dtype holds real numbers.

    Integer and float arrays pass; bool, str, object and complex arrays are
    refused rather than converted.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got an array of dtype {array.dtype}")
    return array


def _integer_array(values, name: str) -> np.ndarray:
    """``values`` as an array, after checking its dtype holds integers.

    Float, bool, str, object and complex arrays are refused rather than
    truncated or converted.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    return array


def _check_reals(values, name: str, lo, hi) -> np.ndarray:
    """``values`` as a float64 array, after checking every entry lies in [lo, hi].

    The rule is ``_check_real``'s for a closed interval: NaN and ±inf fail
    it.  The range test reads the array's minimum and maximum, with no
    temporary array.
    """
    array = _real_array(values, name)
    if array.size and not (lo <= array.min() and array.max() <= hi):
        bad = array[~((lo <= array) & (array <= hi))].flat[0]
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {bad}")
    return array.astype(np.float64, copy=False)


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


def _unit_sum(values: np.ndarray, name: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, renormalized to sum exactly to 1.

    The entries must be real, finite and nonnegative and sum to 1 within
    ``WEIGHT_TOL``.  Division by the total and ``_force_unit_sum`` then make
    the float sum exactly 1.0.
    """
    w = _real_array(values, name).astype(np.float64)
    if not np.isfinite(w).all():
        raise ValueError(f"{name} must be finite")
    if (w < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"{name} must sum to 1 within {WEIGHT_TOL:g}; got sum {total!r}")
    w /= total
    _force_unit_sum(w)
    w.setflags(write=False)
    return w


class HypothesisClass:
    """An ordered finite class of ±1 hypotheses: row h, column x holds h(x).

    The domain is the column range {0, …, |X|−1}.  Rows may repeat, constant
    ones included, and |H| counts every row.  The class holds a read-only
    int8 copy of the matrix it is given, so the caller's array stays theirs.
    """

    __slots__ = ("matrix", "domain_size")

    def __init__(self, matrix):
        raw = np.asarray(matrix)
        if raw.ndim != 2 or 0 in raw.shape:
            raise ValueError(
                f"hypothesis matrix has shape {raw.shape}; it needs at least one "
                "hypothesis row and one domain column"
            )
        self._hold(_check_signs(raw))

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> "HypothesisClass":
        """A class over ``matrix``, a 2-d int8 array the library has just made
        and hands over: checked like ``HypothesisClass(matrix)``'s, then frozen
        in place instead of copied, so the matrix exists once."""
        if matrix.dtype != np.int8:
            raise TypeError(f"an adopted hypothesis matrix must be int8, got {matrix.dtype}")
        _require_signs(matrix, "hypothesis values")
        H = cls.__new__(cls)
        H._hold(matrix)
        return H

    def _hold(self, matrix: np.ndarray) -> None:
        matrix.setflags(write=False)
        self.matrix = matrix
        self.domain_size = int(matrix.shape[1])

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def sample_values(self, sample: "LabeledSample") -> np.ndarray:
        """A new C-contiguous (|H|, n) int8 array of h(x_i): one row per
        hypothesis, columns in sample order."""
        _check_domain(sample, self.domain_size)
        return np.take(self.matrix, sample.positions, axis=1)


def _check_size(voter, H: HypothesisClass) -> None:
    """Refuse a voter whose hypothesis count differs from |H|."""
    if len(voter) != len(H):
        raise ValueError(
            f"classifier has {len(voter)} weights but class has {len(H)} hypotheses"
        )


class VotingClassifier:
    """Convex weights over a hypothesis class, indexed by hypothesis.

    Weights must be nonnegative and sum to 1 within ``WEIGHT_TOL``; they are
    renormalized to an exact unit sum on construction (boosting updates
    accumulate float error).
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d array")
        self.weights = _unit_sum(w, "weights")

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
        """f(x) = Σ_h a_h·h(x) for every domain point, in domain order.

        Each sum is taken straight from the int8 class matrix, one hypothesis
        at a time in row order: f(x) starts at a_0·h_0(x) and adds a_h·h(x)
        for h = 1, 2, … in turn.  ``np.einsum`` without ``optimize`` never
        hands the product to BLAS, so the bits do not depend on the BLAS
        library or its thread count, and no float copy of the matrix is made.
        """
        _check_size(self, H)
        values = np.einsum("i,ij->j", self.weights, H.matrix)
        # A convex combination of ±1 values lies in [-1, 1]; the float sum
        # can overshoot by one ulp, so clamp back to the exact range.
        return np.clip(values, -1.0, 1.0, out=values)


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
        pos = _integer_array(pos, "sample positions")
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


def _check_distinct(atoms: LabeledSample) -> None:
    """Refuse repeated (position, label) pairs, keyed 2·position + (label > 0)
    in one array sorted in place."""
    keys = atoms.positions * 2
    keys += atoms.labels > 0
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("distribution atoms must be distinct")


class DataDistribution:
    """An explicit distribution: a sample of distinct atoms and their masses.

    Probabilities must be nonnegative and sum to 1 within ``WEIGHT_TOL``;
    they are renormalized exactly on construction so losses computed from the
    distribution are exact expectations.
    """

    __slots__ = ("atoms", "probabilities")

    def __init__(self, atoms: LabeledSample, probabilities):
        _check_distinct(atoms)
        probs = np.asarray(probabilities)
        if probs.shape != (len(atoms),):
            raise ValueError(f"probabilities have shape {probs.shape}, not ({len(atoms)},)")
        self.atoms = atoms
        self.probabilities = _unit_sum(probs, "probabilities")

    def __len__(self) -> int:
        return len(self.atoms)

    def sample(self, n: int, rng_seed) -> LabeledSample:
        """Draw n i.i.d. atoms with the generator of the required ``rng_seed``."""
        n = _check_count(n, "n")
        idx = _generator(rng_seed).choice(len(self), size=n, p=self.probabilities)
        atoms = self.atoms
        return LabeledSample(atoms.domain_size, atoms.positions[idx], atoms.labels[idx])


def margins_on_sample(f, H: HypothesisClass, S: LabeledSample) -> np.ndarray:
    """Margins y_i·f(x_i) for every sample point, in sample order."""
    values = f.values_on(H)
    _check_domain(S, H.domain_size)
    return S.labels * values[S.positions]


def margins_on_support(f, H: HypothesisClass, D: DataDistribution):
    """(margins, probabilities) over the atoms of D, in atom order."""
    return margins_on_sample(f, H, D.atoms), D.probabilities


def empirical_margin_loss(f, H: HypothesisClass, S: LabeledSample, theta: float) -> float:
    """Fraction of sample points with margin ≤ θ (ties count as losses).

    θ = 0 gives the empirical 0-1 loss.
    """
    theta = _check_real(theta, "margin threshold", 0, 1)
    m = margins_on_sample(f, H, S)
    return float(np.count_nonzero(m <= theta)) / m.size


def true_margin_loss(f, H: HypothesisClass, D: DataDistribution, theta: float) -> float:
    """Pr over D of margin ≤ θ, computed exactly over the atoms of D."""
    theta = _check_real(theta, "margin threshold", 0, 1)
    m, p = margins_on_support(f, H, D)
    return float(p[m <= theta].sum())

