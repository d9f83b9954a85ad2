"""Unit tests for empirical Rademacher complexity and the convexity collapse."""

import itertools
import math

import numpy as np
import pytest

from votemargin import core, rademacher
from votemargin.core import HypothesisClass, LabeledSample, PreconditionError
from votemargin.harness.checks import random_hypothesis_class
from votemargin.rademacher import (
    EXHAUSTIVE_LIMIT,
    convexity_collapse_check,
    empirical_rademacher,
    exhaustive_rademacher,
    massart_bound,
)
from votemargin.rng import stream

from labeled import sample
from traced import peak_bytes


def opposite_constants(n_points: int):
    matrix = np.vstack(
        [np.ones(n_points, dtype=np.int8), -np.ones(n_points, dtype=np.int8)]
    )
    H = HypothesisClass(matrix)
    S = LabeledSample(n_points, np.arange(n_points), np.ones(n_points))
    return H, S


def all_patterns_on_two_points():
    H = HypothesisClass(np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8))
    S = sample(2, [(0, 1), (1, -1)])
    return H, S


def random_class(seed: int, n_hyps: int, n_points: int):
    rng = stream(seed, 0)
    while True:
        matrix = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_hyps, n_points))
        if np.count_nonzero(np.abs(matrix.sum(axis=1)) == n_points) <= 1:
            break
    H = HypothesisClass(matrix)
    S = LabeledSample(n_points, np.arange(n_points), np.ones(n_points))
    return H, S


def matmul_reference(H, S):
    """The exhaustive value by a chunked sign-matrix product over all 2ⁿ σ."""
    n = len(S)
    values = H.sample_values(S).astype(np.int16)
    total = 0
    count = 1 << n
    bits = np.arange(n, dtype=np.int64)
    chunk = 1 << 18
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        signs = (((idx[:, None] >> bits) & 1) * 2 - 1).astype(np.int16)
        sups = (signs @ values.T).max(axis=1)
        total += int(sups.astype(np.int64).sum())
    return total / (count * n)


def massart_draws(seed: int, count: int):
    """The instances of the ``massart`` suite: n in 1..14, |H| in 2..32,
    sample points drawn with replacement, so columns may repeat."""
    for t in range(count):
        rng = stream(seed, 4, t)
        n = int(rng.integers(1, 15))
        H_size = int(rng.integers(2, 33))
        H = random_hypothesis_class(rng, max(n, 2), H_size)
        S = LabeledSample(H.domain_size, rng.integers(0, H.domain_size, size=n), np.ones(n))
        yield H, S


class TestExhaustive:
    def test_single_hypothesis_has_zero_complexity(self):
        H = HypothesisClass(np.array([[1, -1, 1]], dtype=np.int8))
        S = sample(3, [(0, 1), (1, 1), (2, 1)])
        est = exhaustive_rademacher(H, S)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.trials == 8

    def test_opposite_constants_give_mean_absolute_sign_sum(self):
        # sup over {±1 constants} is |Σσ_i|; E|Σσ|/n = 1/2 for n = 2 and 3
        for n in (2, 3):
            H, S = opposite_constants(n)
            assert exhaustive_rademacher(H, S).value == 0.5

    def test_complete_pattern_class_attains_one(self):
        H, S = all_patterns_on_two_points()
        assert exhaustive_rademacher(H, S).value == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_the_matmul_on_massart_draws(self, seed):
        for H, S in massart_draws(seed, 100):
            est = exhaustive_rademacher(H, S)
            assert est.value == matmul_reference(H, S)
            assert est.trials == 2 ** len(S)

    def test_single_point(self):
        H = HypothesisClass(np.array([[1, -1], [-1, 1], [1, 1]]))
        for point, value in ((0, 1.0), (1, 1.0)):
            S = sample(2, [(point, 1)])
            est = exhaustive_rademacher(H, S)
            assert est.value == matmul_reference(H, S) == value
            assert est.trials == 2
        single = HypothesisClass(np.array([[1, -1]]))
        assert exhaustive_rademacher(single, sample(2, [(0, -1)])).value == 0.0

    def test_rejects_a_sample_over_another_domain(self):
        H, _ = all_patterns_on_two_points()
        with pytest.raises(ValueError, match="domain"):
            exhaustive_rademacher(H, sample(3, [(0, 1), (1, 1)]))

    @pytest.mark.parametrize(
        "n, n_hyps", [(17, 32), (18, 5), (20, 32)], ids=["n17", "n18", "n20"]
    )
    def test_bitwise_equal_to_the_matmul_past_the_table(self, n, n_hyps):
        # n = 17 fills the 16-point table exactly; n = 18 and n = 20 leave
        # 1 and 3 points to the per-block offsets
        H, S = random_class(60 + n, n_hyps, n)
        est = exhaustive_rademacher(H, S)
        assert est.value == matmul_reference(H, S)
        assert est.trials == 2 ** n

    def test_with_one_offset_the_table_is_reduced_as_it_stands(self):
        # n = 17 leaves no point to the offsets: one 16 MiB table of
        # correlations, where a copy of it doubled the peak to 32.1 MiB
        H, S = random_class(63, 256, 17)
        assert peak_bytes(lambda: exhaustive_rademacher(H, S)) < 256 * 2**16 + 2**20

    def test_narrow_table_runs_many_offset_blocks(self, monkeypatch):
        monkeypatch.setattr(rademacher, "_TABLE_BITS", 2)
        for H, S in massart_draws(3, 60):
            assert exhaustive_rademacher(H, S).value == matmul_reference(H, S)

    def test_matches_pure_python_enumeration(self):
        small = [(H, S) for H, S in massart_draws(4, 100) if len(S) <= 6]
        assert len(small) >= 30
        for H, S in small:
            n = len(S)
            rows = H.sample_values(S).tolist()
            total = sum(
                max(sum(s * h for s, h in zip(sigma, row)) for row in rows)
                for sigma in itertools.product((-1, 1), repeat=n)
            )
            assert exhaustive_rademacher(H, S).value == total / (2**n * n)

    def test_enumeration_size_is_capped(self):
        H, S = opposite_constants(EXHAUSTIVE_LIMIT + 1)
        with pytest.raises(PreconditionError, match="exhaustive"):
            exhaustive_rademacher(H, S)


class TestEmpiricalRademacher:
    def test_reproducible_and_reported(self):
        H, S = random_class(21, 4, 8)
        a = empirical_rademacher(H, S, trials=500, rng_seed=stream(22, 0))
        b = empirical_rademacher(H, S, trials=500, rng_seed=stream(22, 0))
        assert a == b
        assert a.trials == 500
        assert a.std_error > 0.0

    def test_matches_the_exhaustive_value(self):
        H, S = random_class(23, 4, 8)
        exact = exhaustive_rademacher(H, S).value
        est = empirical_rademacher(H, S, trials=4000, rng_seed=stream(24, 0))
        assert abs(est.value - exact) <= 4.0 * est.std_error

    def test_degenerate_class_is_deterministic(self):
        # all four patterns on two points: every sign draw attains sup = n
        H, S = all_patterns_on_two_points()
        est = empirical_rademacher(H, S, trials=50, rng_seed=stream(25, 0))
        assert est.value == 1.0 and est.std_error == 0.0

    def test_single_trial_has_unknown_error(self):
        H, S = random_class(26, 3, 6)
        est = empirical_rademacher(H, S, trials=1, rng_seed=stream(27, 0))
        assert est.std_error == float("inf")

    def test_trials_are_validated(self):
        H, S = random_class(28, 3, 6)
        with pytest.raises(ValueError, match="trials"):
            empirical_rademacher(H, S, trials=0, rng_seed=stream(28, 0))

    def test_signs_are_drawn_in_blocks_of_bounded_size(self):
        # Two blocks of 52 428 draws here.  All 10^5 draws at once peaked at
        # 31.3 MiB and gave these same bits: each correlation is an integer.
        H, S = random_class(44, 2, 20)
        estimates = []
        peak = peak_bytes(
            lambda: estimates.append(empirical_rademacher(H, S, trials=10**5, rng_seed=stream(45, 0)))
        )
        assert (estimates[0].value, estimates[0].std_error) == (0.146448, 0.0005335435124212424)
        # one block as two 8-byte arrays (the int64 draw, or the float64 cast
        # of its int8 signs), plus the per-draw vectors
        assert peak < 2 * 8 * core._BLOCK_ENTRIES + 2 * 8 * 10**5 + 2**20


class TestMassartBound:
    def test_formula(self):
        assert massart_bound(16, 200) == math.sqrt(2.0 * math.log(16) / 200)
        assert massart_bound(1, 50) == 0.0

    def test_exhaustive_value_respects_the_ceiling(self):
        for seed, n_hyps, n_points in ((30, 4, 10), (31, 8, 12)):
            H, S = random_class(seed, n_hyps, n_points)
            assert exhaustive_rademacher(H, S).value <= massart_bound(n_hyps, n_points)

    def test_validation(self):
        for bad in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="H_size"):
                massart_bound(bad, 10)
        for bad in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="n"):
                massart_bound(4, bad)


class TestConvexityCollapse:
    def test_hull_never_beats_the_class(self):
        for seed in (40, 41):
            H, S = random_class(seed, 5, 10)
            assert convexity_collapse_check(H, S, trials=100, rng_seed=stream(seed, 1))

    def test_violations_are_at_most_float_noise(self):
        # exact suprema coincide, so any excess is dot-product rounding: the
        # check's own draws stay within 1e-12, far inside its 1e-9 tolerance
        H, S = random_class(42, 3, 6)
        assert convexity_collapse_check(H, S, trials=100, rng_seed=stream(42, 1))
        rng = stream(42, 1)
        combos = rng.dirichlet(np.ones(len(H)), size=50)
        sigma = rng.integers(0, 2, size=(100, len(S))) * 2.0 - 1.0
        corr = sigma @ H.sample_values(S).T
        assert ((corr @ combos.T).max(axis=1) - corr.max(axis=1)).max() <= 1e-12

    def test_every_block_of_signs_is_drawn(self):
        # 60 000 draws of 50 signs are three blocks; the generator ends where
        # one unblocked draw of them leaves it
        H, S = random_class(46, 8, 50)
        rng = np.random.default_rng(47)
        assert convexity_collapse_check(H, S, trials=60_000, rng_seed=rng)
        reference = np.random.default_rng(47)
        reference.dirichlet(np.ones(len(H)), size=50)
        reference.integers(0, 2, size=(60_000, len(S)))
        assert rng.random() == reference.random()

    def test_validation(self):
        H, S = random_class(43, 3, 6)
        with pytest.raises(ValueError, match="trials"):
            convexity_collapse_check(H, S, trials=0, rng_seed=stream(43, 0))
