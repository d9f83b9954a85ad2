"""Unit tests for randomized discretization and the exact binomial margin law."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemargin import discretize
from votemargin.core import (
    DataDistribution,
    DiscreteDomain,
    HypothesisClass,
    LabeledSample,
    PreconditionError,
    VotingClassifier,
    constant_hypothesis,
    margins_on_support,
    true_margin_loss,
)
from votemargin.discretize import (
    DiscretizedClassifier,
    binom_margin_tail,
    binom_margin_tail_batch,
    decomposition_residual,
    expected_half_margin_loss_bound_check,
    first_decrease,
    k_star,
    margin_law_monotone_check,
    sample_discretization,
)
from votemargin.rng import stream

from labeled import distribution, sample


def exact_tail(N: int, lam: float, eta: float) -> Fraction:
    """Independent rational oracle: sum the binomial upper tail exactly.

    The threshold is located by scanning margins (2k − N)/N for the first
    strict exceedance of η, with every comparison done in Fraction
    arithmetic, so the oracle shares no code with the implementation.
    """
    ks = next(k for k in range(N + 2) if k > N or Fraction(2 * k - N, N) > Fraction(eta))
    if ks > N:
        return Fraction(0)
    p = Fraction(lam) / 2 + Fraction(1, 2)
    q = 1 - p
    return sum(math.comb(N, k) * p**k * q ** (N - k) for k in range(ks, N + 1))


def exact_loop(N: int, lam: float, eta: float) -> float:
    """The scalar tail through the retained exact integer loop alone."""
    problem = discretize._tail_problem(N, lam, eta)
    return problem if isinstance(problem, float) else discretize._exact_tail(*problem)


def random_instance(seed: int, n_points: int = 8, n_hyps: int = 4, n_sample: int = 20):
    """A random (f, H, D, S) instance over ±1 hypothesis tables."""
    rng = stream(seed, 0)
    domain = DiscreteDomain(tuple(f"x{i}" for i in range(n_points)))
    while True:
        matrix = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_hyps, n_points))
        # keep at most one +1 and one -1 constant row so construction succeeds
        row_sums = np.abs(matrix.sum(axis=1))
        if np.count_nonzero(row_sums == n_points) <= 1:
            break
    H = HypothesisClass(domain, matrix)
    f = VotingClassifier(rng.dirichlet(np.ones(n_hyps)))
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=n_points)
    probs = rng.dirichlet(np.ones(n_points))
    D = DataDistribution(LabeledSample(domain, np.arange(n_points), labels), probs)
    S = D.sample(n_sample, rng)
    return f, H, D, S


class TestKStar:
    def test_matches_rational_threshold_scan(self):
        rng = stream(3, 0)
        for _ in range(300):
            N = int(rng.integers(1, 201))
            if rng.random() < 0.5:
                eta = float(rng.uniform(-1.0, 1.0))
            else:  # exact lattice points, where strictness is decided
                eta = (2 * int(rng.integers(0, N + 1)) - N) / N
            expected = next(
                k
                for k in range(N + 2)
                if k > N or Fraction(2 * k - N, N) > Fraction(eta)
            )
            assert k_star(N, eta) == expected, (N, eta)

    def test_lattice_tie_is_excluded_from_the_tail(self):
        # margin exactly η must not count: (2k − 8)/8 > 1/4 first holds at k = 6
        assert k_star(8, 0.25) == 6

    def test_extreme_thresholds(self):
        assert k_star(12, 1.0) == 13  # no margin exceeds 1
        assert k_star(12, -1.0) == 1  # every agreeing draw beats −1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="eta"):
            k_star(8, 1.5)
        with pytest.raises(ValueError, match="N"):
            k_star(0, 0.5)


class TestBinomMarginTail:
    def test_bitwise_equal_to_exact_rational(self):
        rng = stream(7, 0)
        for _ in range(200):
            N = int(rng.integers(1, 65))
            lam = float(rng.uniform(-1.0, 1.0))
            eta = float(rng.uniform(-1.0, 1.0))
            assert binom_margin_tail(N, lam, eta) == float(exact_tail(N, lam, eta))

    def test_bitwise_equal_at_lattice_ties(self):
        for N, eta in ((8, 0.25), (8, -0.25), (16, 0.0), (10, 0.2)):
            for lam in (-1.0, -0.9, -0.5, 0.0, 0.3, 1.0):
                assert binom_margin_tail(N, lam, eta) == float(
                    exact_tail(N, lam, eta)
                ), (N, lam, eta)

    def test_frozen_reference_values(self):
        # correctly rounded values of the exact rational tail
        frozen = {
            (8, 0.3, 0.25): 0.4278136570703125,
            (8, -0.9, 0.0): 1.5404882812499983e-05,
            (16, 0.7, 0.0): 0.9989409963366745,
            (32, -0.5, 0.25): 1.4796568723783534e-06,
            (32, 0.7, 0.0): 0.9999964994637157,
            (128, 0.0, 0.5): 2.0779977134665415e-09,
            (1024, 0.3, 0.25): 0.9494176821815353,
            (1024, -0.5, 0.5): 1.8577257728831838e-247,
        }
        for (N, lam, eta), value in frozen.items():
            assert binom_margin_tail(N, lam, eta) == value, (N, lam, eta)

    def test_degenerate_lambdas(self):
        assert binom_margin_tail(8, -1.0, 0.0) == 0.0
        assert binom_margin_tail(8, -1.0, -1.0) == 0.0
        assert binom_margin_tail(8, 1.0, 0.5) == 1.0
        assert binom_margin_tail(8, 1.0, 1.0) == 0.0  # margin 1 is never > 1

    def test_nonincreasing_in_eta(self):
        tails = [binom_margin_tail(64, 0.3, float(e)) for e in np.linspace(-1, 1, 81)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_nondecreasing_in_lambda(self):
        tails = [binom_margin_tail(64, float(l), 0.25) for l in np.linspace(-1, 1, 81)]
        assert all(a <= b for a, b in zip(tails, tails[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=512),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_front_bitwise_equal_to_exact_loop(self, N, lam, eta):
        assert binom_margin_tail(N, lam, eta).hex() == exact_loop(N, lam, eta).hex()

    def test_rounding_midpoint_falls_back_to_exact_loop(self):
        # p = 0.35 needs 54 significant bits: the tail at N = 1 is a midpoint
        # between two doubles, which no finite bracket can round
        before = discretize._exact_fallbacks
        value = binom_margin_tail(1, -0.3, 0.0)
        assert discretize._exact_fallbacks == before + 1
        assert value == float(exact_tail(1, -0.3, 0.0))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="lambda"):
            binom_margin_tail(8, 1.2, 0.0)
        with pytest.raises(ValueError, match="lambda"):
            binom_margin_tail(8, math.nan, 0.0)
        with pytest.raises(ValueError, match="eta"):
            binom_margin_tail(8, 0.0, -1.2)
        with pytest.raises(ValueError, match="N"):
            binom_margin_tail(-1, 0.0, 0.0)


class TestBinomMarginTailBatch:
    def test_agrees_with_scalar_at_small_N(self):
        lams = np.linspace(-1, 1, 41)
        batch = binom_margin_tail_batch(16, lams, 0.25)
        scalars = np.array([binom_margin_tail(16, float(l), 0.25) for l in lams])
        assert np.max(np.abs(batch - scalars)) <= 1e-14

    def test_agrees_with_scalar_at_large_N(self):
        lams = np.linspace(-1, 1, 101)
        for eta in (0.0, 0.5):
            batch = binom_margin_tail_batch(1024, lams, eta)
            scalars = np.array([binom_margin_tail(1024, float(l), eta) for l in lams])
            assert np.max(np.abs(batch - scalars)) <= 2e-12

    def test_preserves_shape(self):
        lams = np.array([[-0.5, 0.0], [0.3, 0.7]])
        out = binom_margin_tail_batch(32, lams, 0.25)
        assert out.shape == (2, 2)
        assert out[1, 0] == pytest.approx(binom_margin_tail(32, 0.3, 0.25), abs=1e-13)

    def test_empty_input(self):
        assert binom_margin_tail_batch(8, np.array([]), 0.0).shape == (0,)

    def test_threshold_beyond_range_is_zero(self):
        assert np.all(binom_margin_tail_batch(8, np.linspace(-1, 1, 5), 1.0) == 0.0)

    def test_rejects_out_of_range_lambdas(self):
        with pytest.raises(ValueError, match="lambda"):
            binom_margin_tail_batch(8, np.array([0.0, 1.5]), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lambdas(self, bad):
        with pytest.raises(ValueError, match="lambda"):
            binom_margin_tail_batch(64, np.array([bad, 0.2]), 0.1)


class TestDiscretizedClassifier:
    def small(self):
        domain = DiscreteDomain(("a", "b", "c"))
        H = HypothesisClass(
            domain,
            np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=np.int8),
        )
        return domain, H

    def test_values_average_the_drawn_rows(self):
        _, H = self.small()
        g = DiscretizedClassifier(H, [0, 0, 1, 2])
        expected = (2 * H.matrix[0] + H.matrix[1] + H.matrix[2]) / 4.0
        assert np.array_equal(g.values_on_domain(), expected)
        assert g.value("b") == expected[1]
        assert g.N == 4

    def test_values_are_cached(self):
        _, H = self.small()
        g = DiscretizedClassifier(H, [0, 1])
        assert g.values_on_domain() is g.values_on_domain()

    def test_margins_on_sample_and_support(self):
        _, H = self.small()
        g = DiscretizedClassifier(H, [0, 2])
        S = sample(H.domain, [("a", 1), ("c", -1), ("a", 1)])
        values = g.values_on_domain()
        assert np.array_equal(
            g.margins_on_sample(S), np.array([values[0], -values[2], values[0]])
        )
        D = distribution(H.domain, {("a", 1): 0.5, ("b", -1): 0.5})
        margins, probs = g.margins_on_support(D)
        assert np.array_equal(margins, np.array([values[0], -values[1]]))
        assert np.array_equal(probs, np.array([0.5, 0.5]))

    def test_margins_reject_a_sample_over_another_domain(self):
        _, H = self.small()
        g = DiscretizedClassifier(H, [0, 2])
        other = DiscreteDomain(("a", "b", "d"))
        with pytest.raises(ValueError, match="domain"):
            g.margins_on_sample(sample(other, [("a", 1)]))
        with pytest.raises(ValueError, match="domain"):
            g.margins_on_support(distribution(other, {("d", 1): 1.0}))

    def test_as_voting_uses_draw_frequencies(self):
        _, H = self.small()
        g = DiscretizedClassifier(H, [0, 0, 2, 0])
        f = g.as_voting()
        assert isinstance(f, VotingClassifier)
        assert np.array_equal(f.weights, np.array([0.75, 0.0, 0.25]))

    def test_rejects_bad_indices(self):
        _, H = self.small()
        with pytest.raises(ValueError, match="non-empty"):
            DiscretizedClassifier(H, [])
        with pytest.raises(ValueError, match="non-empty"):
            DiscretizedClassifier(H, [[0, 1]])
        with pytest.raises(ValueError, match="out of range"):
            DiscretizedClassifier(H, [0, 3])
        with pytest.raises(ValueError, match="out of range"):
            DiscretizedClassifier(H, [-1])


class TestSampleDiscretization:
    def two_constant_class(self):
        domain = DiscreteDomain(("x0",))
        H = HypothesisClass(
            domain, [constant_hypothesis(domain, 1), constant_hypothesis(domain, -1)]
        )
        return domain, H

    def test_reproducible_from_seed(self):
        _, H = self.two_constant_class()
        f = VotingClassifier([0.6, 0.4])
        a = sample_discretization(f, H, 32, stream(5, 0))
        b = sample_discretization(f, H, 32, stream(5, 0))
        c = sample_discretization(f, H, 32, stream(5, 1))
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_point_mass_draws_one_hypothesis(self):
        _, H = self.two_constant_class()
        f = VotingClassifier([0.0, 1.0])
        g = sample_discretization(f, H, 16, stream(5, 2))
        assert np.all(g.indices == 1)

    def test_draw_frequencies_follow_the_weights(self):
        _, H = self.two_constant_class()
        f = VotingClassifier([0.9, 0.1])
        g = sample_discretization(f, H, 4000, stream(5, 3))
        freq = np.count_nonzero(g.indices == 0) / 4000
        assert abs(freq - 0.9) <= 4 * math.sqrt(0.9 * 0.1 / 4000)

    def test_sampled_margins_follow_the_binomial_law(self):
        # end-to-end: empirical Pr[y·g(x) > 0] matches the exact tail
        _, H = self.two_constant_class()
        p = 0.75
        f = VotingClassifier([p, 1.0 - p])
        lam = 2 * p - 1  # y·f(x0) with label +1
        S = sample(H.domain, [("x0", 1)])
        M, N = 2000, 8
        rng = stream(5, 4)
        hits = sum(
            float(sample_discretization(f, H, N, rng).margins_on_sample(S)[0]) > 0.0
            for _ in range(M)
        )
        target = binom_margin_tail(N, lam, 0.0)
        sigma = math.sqrt(target * (1.0 - target) / M)
        assert abs(hits / M - target) <= 5 * sigma

    def test_rejects_weight_class_size_mismatch(self):
        _, H = self.two_constant_class()
        with pytest.raises(ValueError, match="weights"):
            sample_discretization(VotingClassifier([1.0]), H, 8, stream(5, 5))


class TestMonotoneCheck:
    def test_first_decrease_locates_the_drop(self):
        assert first_decrease([0.1, 0.2, 0.15, 0.3]) == 2
        assert first_decrease([0.1, 0.2, 0.3]) is None
        assert first_decrease([0.2, 0.2 - 1e-16]) is None
        assert first_decrease([0.2, 0.2 - 1e-13]) == 1

    def test_tail_is_monotone_on_grids(self):
        for N in (8, 129):
            for eta in (0.0, 0.25):
                ok, where = margin_law_monotone_check(N, eta, np.linspace(-1, 1, 501))
                assert ok and where is None

    def test_rejects_unsorted_or_empty_grids(self):
        with pytest.raises(ValueError, match="sorted"):
            margin_law_monotone_check(8, 0.0, np.array([0.5, -0.5]))
        with pytest.raises(ValueError, match="non-empty"):
            margin_law_monotone_check(8, 0.0, np.array([]))


class TestDecompositionResidual:
    def test_residual_is_float_noise_on_random_instances(self):
        for t in range(30):
            f, H, D, S = random_instance(100 + t)
            g = sample_discretization(f, H, int(stream(200 + t, 0).integers(1, 17)), stream(300 + t, 0))
            rng = stream(400 + t, 0)
            theta = float(rng.uniform(0.05, 1.0))
            theta_i = float(rng.uniform(0.05, 1.0))
            assert decomposition_residual(f, g, H, D, S, theta, theta_i) <= 1e-12

    def test_residual_over_every_discretization_of_a_small_class(self):
        f, H, D, S = random_instance(99, n_points=4, n_hyps=3, n_sample=10)
        for indices in itertools.product(range(3), repeat=3):
            g = DiscretizedClassifier(H, list(indices))
            assert decomposition_residual(f, g, H, D, S, 0.4, 0.5) <= 1e-12

    def test_expected_half_margin_loss_matches_exhaustive_enumeration(self):
        # E over all |H|^N discretizations of L_D^{θ_i/2}(g), with exact
        # product weights, must equal the per-atom binomial-tail expression.
        f, H, D, S = random_instance(98, n_points=5, n_hyps=3, n_sample=10)
        N, theta_i = 4, 0.5
        half = theta_i / 2.0
        expected = 0.0
        for indices in itertools.product(range(3), repeat=N):
            weight = float(np.prod(f.weights[list(indices)]))
            g = DiscretizedClassifier(H, list(indices))
            margins, probs = g.margins_on_support(D)
            expected += weight * float(probs[margins <= half].sum())
        margins_f, probs = margins_on_support(f, H, D)
        via_law = float(probs @ (1.0 - binom_margin_tail_batch(N, margins_f, half)))
        assert abs(expected - via_law) <= 1e-12

    def test_rejects_bad_thresholds_and_mismatched_domains(self):
        f, H, D, S = random_instance(97)
        g = sample_discretization(f, H, 8, stream(96, 0))
        with pytest.raises(ValueError, match="theta"):
            decomposition_residual(f, g, H, D, S, 0.0, 0.5)
        with pytest.raises(ValueError, match="theta_i"):
            decomposition_residual(f, g, H, D, S, 0.5, 1.5)
        other_domain = DiscreteDomain(("y0", "y1"))
        other_H = HypothesisClass(
            other_domain,
            [constant_hypothesis(other_domain, 1), constant_hypothesis(other_domain, -1)],
        )
        other_g = DiscretizedClassifier(other_H, [0, 1])
        with pytest.raises(ValueError, match="domain"):
            decomposition_residual(f, other_g, H, D, S, 0.5, 0.5)


class TestExpectedHalfMarginLossBound:
    def test_bound_holds_and_lhs_is_the_law_expectation(self):
        f, H, D, _ = random_instance(95)
        theta_i, N = 0.5, 64
        lhs, rhs, holds = expected_half_margin_loss_bound_check(f, H, D, theta_i, N)
        assert holds and lhs <= rhs
        margins, probs = margins_on_support(f, H, D)
        manual = float(probs @ (1.0 - binom_margin_tail_batch(N, margins, theta_i / 2)))
        assert lhs == pytest.approx(manual, abs=1e-15)
        assert rhs == pytest.approx(
            true_margin_loss(f, H, D, 0.75 * theta_i) + math.exp(-N * theta_i**2 / 128),
            abs=1e-15,
        )

    def test_requires_enough_draws(self):
        f, H, D, _ = random_instance(94)
        with pytest.raises(PreconditionError, match="N"):
            expected_half_margin_loss_bound_check(f, H, D, 0.5, 16)

    def test_rejects_bad_theta_i(self):
        f, H, D, _ = random_instance(93)
        with pytest.raises(ValueError, match="theta_i"):
            expected_half_margin_loss_bound_check(f, H, D, 0.0, 64)
