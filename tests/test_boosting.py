"""Unit tests for the stump class, synthetic tasks, and boosting."""

import math

import numpy as np
import pytest

from votemargin.boosting import (
    EPSILON_CLAMP,
    BoostingRun,
    MarginHistogram,
    StumpClassSpec,
    adaboost,
    build_stump_class,
    generate_synthetic,
    margin_histogram,
)
from votemargin.core import (
    HypothesisClass,
    VotingClassifier,
    empirical_margin_loss,
)
from votemargin.rng import stream

from labeled import sample


def separable_task(n: int = 200, seed: int = 1234):
    spec = StumpClassSpec(2, 7)
    domain, H = build_stump_class(spec)
    D, S = generate_synthetic(H, n, 0.0, stream(seed, 0))
    return spec, H, D, S


class TestStumpClassSpec:
    def test_counts(self):
        spec = StumpClassSpec(2, 7)
        assert spec.H_size == 2 * 2 * 7 + 2 == 30
        assert spec.domain_size == 8**2

    def test_validation(self):
        with pytest.raises(ValueError, match="d"):
            StumpClassSpec(0, 7)
        with pytest.raises(ValueError, match="k"):
            StumpClassSpec(2, 0)


class TestBuildStumpClass:
    def test_shapes_and_constant_rows(self):
        spec = StumpClassSpec(2, 7)
        domain, H = build_stump_class(spec)
        assert len(domain) == spec.domain_size
        assert len(H) == spec.H_size
        assert H.includes_constants
        assert H.plus_index == 2 * 2 * 7  # constants follow both stump blocks
        assert H.minus_index == 2 * 2 * 7 + 1

    def test_stump_semantics_on_a_line(self):
        spec = StumpClassSpec(1, 3)
        domain, H = build_stump_class(spec)
        assert domain.points == ((0,), (1,), (2,), (3,))
        # row t: 1{x <= t}; rows k..2k-1 are the polarities flipped
        assert np.array_equal(H.matrix[1], np.array([1, 1, -1, -1], dtype=np.int8))
        assert np.array_equal(H.matrix[3 + 1], -H.matrix[1])

    def test_lexicographic_domain(self):
        spec = StumpClassSpec(2, 1)
        domain, _ = build_stump_class(spec)
        assert domain.points == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestGenerateSynthetic:
    def test_deterministic_given_the_seed(self):
        _, H = build_stump_class(StumpClassSpec(2, 3))
        D1, S1 = generate_synthetic(H, 50, 0.1, stream(7, 0))
        D2, S2 = generate_synthetic(H, 50, 0.1, stream(7, 0))
        assert np.array_equal(D1.atoms.positions, D2.atoms.positions)
        assert np.array_equal(D1.atoms.labels, D2.atoms.labels)
        assert np.array_equal(D1.probabilities, D2.probabilities)
        assert np.array_equal(S1.positions, S2.positions)
        assert np.array_equal(S1.labels, S2.labels)

    def test_noise_free_distribution_is_uniform_over_true_labels(self):
        spec = StumpClassSpec(2, 3)
        _, H = build_stump_class(spec)
        D, S = generate_synthetic(H, 50, 0.0, stream(8, 0))
        assert len(D.atoms) == spec.domain_size
        assert np.allclose(D.probabilities, 1.0 / spec.domain_size)
        assert len(S) == 50

    def test_noise_mass_is_the_flip_probability(self):
        spec = StumpClassSpec(2, 3)
        _, H = build_stump_class(spec)
        noise = 0.2
        D, _ = generate_synthetic(H, 50, noise, stream(9, 0))
        assert len(D.atoms) == 2 * spec.domain_size
        per_point = {}
        for point, prob in zip(D.atoms.positions, D.probabilities):
            per_point.setdefault(point, []).append(prob)
        flip_mass = sum(min(probs) for probs in per_point.values())
        assert flip_mass == pytest.approx(noise, abs=1e-12)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_atoms_are_point_major_true_label_first(self, noise):
        # This layout fixes the probability vector the sampler sees, and so
        # every sample drawn from the task.
        spec = StumpClassSpec(2, 3)
        _, H = build_stump_class(spec)
        D, _ = generate_synthetic(H, 50, noise, stream(9, 0))
        size = spec.domain_size
        per_point = 2 if noise else 1
        truth = D.atoms.labels[::per_point]
        np.testing.assert_array_equal(
            D.atoms.positions, np.repeat(np.arange(size), per_point)
        )
        if noise:
            np.testing.assert_array_equal(D.atoms.labels[1::2], -truth)
        expected = [(1.0 - noise) / size, noise / size][:per_point] * size
        np.testing.assert_allclose(D.probabilities, expected, rtol=1e-12)

    def test_validation(self):
        _, H = build_stump_class(StumpClassSpec(1, 2))
        with pytest.raises(ValueError, match="noise"):
            generate_synthetic(H, 10, 0.5, stream(10, 0))
        with pytest.raises(ValueError, match="noise"):
            generate_synthetic(H, 10, -0.1, stream(10, 0))
        with pytest.raises(ValueError, match="n"):
            generate_synthetic(H, 0, 0.1, stream(10, 0))

    def test_rejects_a_class_that_is_not_a_stump_class(self):
        domain, H = build_stump_class(StumpClassSpec(1, 2))
        no_constants = HypothesisClass(domain, H.matrix[:-2])
        constants_first = HypothesisClass(domain, H.matrix[::-1])
        only_constants = HypothesisClass(domain, H.matrix[-2:])
        for bad in (no_constants, constants_first, only_constants):
            with pytest.raises(ValueError, match="stump class"):
                generate_synthetic(bad, 10, 0.1, stream(10, 0))


class TestAdaboost:
    def test_deterministic_and_reaches_zero_training_error(self):
        _, H, _, S = separable_task()
        run1 = adaboost(S, H, 60)
        run2 = adaboost(S, H, 60)
        assert run1.rounds == run2.rounds
        assert np.array_equal(run1.classifier.weights, run2.classifier.weights)
        assert run1.status == run2.status
        assert isinstance(run1, BoostingRun)
        assert run1.status == "completed"
        assert run1.T_completed == run1.T_requested == 60
        assert run1.rounds[-1].train_error == 0.0
        assert run1.rounds[-1].min_margin > 0.0
        assert abs(float(run1.classifier.weights.sum()) - 1.0) <= 1e-12

    def test_round_trace_invariants(self):
        _, H, _, S = separable_task()
        run = adaboost(S, H, 40)
        exp_losses = [r.exp_loss for r in run.rounds]
        assert all(r.epsilon < 0.5 for r in run.rounds)
        assert all(r.alpha > 0.0 for r in run.rounds)
        # the exponential surrogate dominates the 0-1 error and is monotone
        assert all(r.train_error <= r.exp_loss + 1e-12 for r in run.rounds)
        assert all(a >= b - 1e-12 for a, b in zip(exp_losses, exp_losses[1:]))
        assert [r.round for r in run.rounds] == list(range(1, 41))

    def test_single_round_is_a_point_mass_on_the_best_stump(self):
        _, H, _, S = separable_task()
        run = adaboost(S, H, 1)
        assert run.T_completed == 1
        best = run.rounds[0].hypothesis
        assert run.classifier.weights[best] == 1.0

    def test_perfect_hypothesis_ends_the_run(self):
        spec = StumpClassSpec(1, 3)
        domain, H = build_stump_class(spec)
        # labels realized by the stump 1{x <= 1}, which is row 1
        S = sample(domain, [((0,), 1), ((1,), 1), ((2,), -1), ((3,), -1)])
        run = adaboost(S, H, 10)
        assert run.status == "perfect-hypothesis"
        assert run.T_completed == 1
        assert run.rounds[0].epsilon == 0.0
        assert run.rounds[0].min_margin == 1.0
        assert run.classifier.weights[1] == 1.0
        # the clamp keeps the recorded alpha finite
        assert run.rounds[0].alpha == 0.5 * math.log((1.0 - EPSILON_CLAMP) / EPSILON_CLAMP)

    def test_early_stop_when_no_hypothesis_beats_chance(self):
        spec = StumpClassSpec(1, 1)
        domain, H = build_stump_class(spec)
        # both labels at both points: every hypothesis has error exactly 1/2
        S = sample(domain, [((0,), 1), ((0,), -1), ((1,), 1), ((1,), -1)])
        run = adaboost(S, H, 5)
        assert run.status == "early-stop"
        assert run.T_completed == 0
        assert np.allclose(run.classifier.weights, 1.0 / len(H))

    def test_T_is_validated(self):
        _, H, _, S = separable_task(n=20)
        with pytest.raises(ValueError, match="T"):
            adaboost(S, H, 0)


class TestMarginHistogram:
    def test_counts_and_cumulative_match_the_margin_loss(self):
        _, H, _, S = separable_task()
        run = adaboost(S, H, 30)
        hist = margin_histogram(run.classifier, H, S, bin_count=8)
        assert hist.n == len(S)
        assert len(hist.edges) == 9 and len(hist.counts) == 8
        cumulative = hist.cumulative_fraction()
        for idx, edge in enumerate(hist.edges[1:]):
            if 0.0 <= edge <= 1.0:
                assert cumulative[idx] == pytest.approx(
                    empirical_margin_loss(run.classifier, H, S, float(edge)), abs=1e-15
                )
        assert cumulative[-1] == 1.0

    def test_edge_margins_fall_in_the_lower_bin(self):
        spec = StumpClassSpec(1, 1)
        domain, H = build_stump_class(spec)
        S = sample(domain, [((0,), 1), ((1,), -1)])
        # equal weight on the two constants makes every margin exactly 0
        f = VotingClassifier([0.0, 0.0, 0.5, 0.5])
        hist = margin_histogram(f, H, S, bin_count=4)
        assert hist.counts == (0, 2, 0, 0)  # the (−0.5, 0] bin
        assert hist.cumulative_fraction()[1] == 1.0  # loss at θ = 0 counts ties

    def test_extreme_margins_are_kept(self):
        spec = StumpClassSpec(1, 1)
        domain, H = build_stump_class(spec)
        S = sample(domain, [((0,), 1), ((1,), -1)])
        f = VotingClassifier([0.0, 0.0, 1.0, 0.0])  # constant +1
        hist = margin_histogram(f, H, S, bin_count=4)
        assert hist.counts[0] == 1 and hist.counts[-1] == 1

    def test_bin_count_is_validated(self):
        _, H, _, S = separable_task(n=20)
        f = VotingClassifier(np.full(len(H), 1.0 / len(H)))
        with pytest.raises(ValueError, match="bin_count"):
            margin_histogram(f, H, S, bin_count=1)
