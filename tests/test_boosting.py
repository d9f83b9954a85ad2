"""Unit tests for the stump class, synthetic tasks, and boosting."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemargin import boosting
from votemargin.boosting import (
    EPSILON_CLAMP,
    STUMP_CLASS_LIMIT,
    BoostingRun,
    MarginHistogram,
    _stump_shape,
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
from traced import peak_bytes


def separable_task(n: int = 200, seed: int = 1234):
    H = build_stump_class(2, 7)
    D, S = generate_synthetic(H, n, 0.0, stream(seed, 0))
    return H, D, S


#: (hypothesis, ε_t, α_t) of every round of ``frozen_task``, and the final
#: weights, bit for bit: the round table CSVs of the adaboost and
#: gap-vs-bounds experiments are built from them.
FROZEN_ROUNDS = [
    (4, "0x1.bbbbbbbbbbbbcp-3", "0x1.4902c08bec8cbp-1"),
    (6, "0x1.7b99c4810c267p-2", "0x1.0ef326a050f49p-2"),
    (3, "0x1.c010ca5e2b34ep-2", "0x1.011457b06ac7bp-3"),
    (2, "0x1.ec614a2fb75bep-2", "0x1.3a12bbfc6e904p-5"),
    (7, "0x1.e3173ac951ce8p-2", "0x1.cf0a678c88beap-5"),
    (2, "0x1.ee9b4b02074c3p-2", "0x1.1666bcc2efdccp-5"),
]
FROZEN_WEIGHTS = [
    "0x0.0p+0", "0x0.0p+0", "0x1.fe0ff65bca5d7p-5", "0x1.baa3ed1abdec5p-4",
    "0x1.1b3ef60f2da6ap-1", "0x0.0p+0", "0x1.d285b87df44d7p-3",
    "0x1.8ea1ec840e2a3p-5",
]


def frozen_task():
    H = build_stump_class(1, 3)
    _, S = generate_synthetic(H, 60, 0.2, stream(11, 0))
    return H, S


def margin_statistics(agreement, picks, alphas):
    """(train_error, min_margin, exp_loss) after each round by definition:
    from the n-vector of margins score / Σα, which ``adaboost`` never forms."""
    n = agreement.shape[1]
    score = np.zeros(n)
    stats = []
    for r, (h, alpha) in enumerate(zip(picks, alphas)):
        score += alpha * agreement[h]
        margins = score / math.fsum(alphas[:r + 1])
        stats.append(
            (float(np.count_nonzero(margins <= 0.0)) / n, float(margins.min()),
             float(np.exp(-score).mean()))
        )
    return stats


def run_statistics(run):
    return [(r.train_error, r.min_margin, r.exp_loss) for r in run.rounds]


def reference_stump_adaboost(S, d, k, T):
    """AdaBoost on ``build_stump_class(d, k)``, each ε summed by hand in the
    documented order: per feature, the weights added in sample order into
    (lattice value, label) bins, then running sums over the lattice values,
    ascending for the mass at or below a threshold and descending for the
    mass above it.  The weight update is numpy's, as in ``adaboost``.

    Returns ([(hypothesis, ε, α)], [(train_error, min_margin, exp_loss)],
    final weights), the statistics from ``margin_statistics``.
    """
    n = len(S)
    coords = [[int(p) // (k + 1) ** (d - 1 - a) % (k + 1) for p in S.positions] for a in range(d)]
    positive = [int(y) > 0 for y in S.labels]
    agreement = build_stump_class(d, k).sample_values(S) * S.labels
    size = 2 * d * k + 2
    w = np.full(n, 1.0 / n)
    rounds, totals = [], [0.0] * size
    for _ in range(T):
        eps = [0.0] * size
        for a in range(d):
            mass = [[0.0, 0.0] for _ in range(k + 1)]
            for i, wi in enumerate(w.tolist()):
                mass[coords[a][i]][positive[i]] += wi
            below, run = [], [0.0, 0.0]
            for v in range(k + 1):
                run = [run[0] + mass[v][0], run[1] + mass[v][1]]
                below.append(run)
            above, run = [None] * k, [0.0, 0.0]
            for v in range(k, 0, -1):
                run = [run[0] + mass[v][0], run[1] + mass[v][1]]
                above[v - 1] = run
            for t in range(k):
                eps[a * k + t] = below[t][0] + above[t][1]
                eps[d * k + a * k + t] = below[t][1] + above[t][0]
            if a == 0:
                eps[-2], eps[-1] = below[k]
        best = min(range(size), key=eps.__getitem__)  # lowest index on ties
        eps_c = min(max(eps[best], EPSILON_CLAMP), 1.0 - EPSILON_CLAMP)
        alpha = 0.5 * math.log((1.0 - eps_c) / eps_c)
        rounds.append((best, eps[best], alpha))
        totals[best] += alpha
        w = w * np.exp(-alpha * agreement[best])
        w /= w.sum()
    totals = np.array(totals)
    stats = margin_statistics(agreement, [h for h, _, _ in rounds], [a for _, _, a in rounds])
    return rounds, stats, VotingClassifier(totals / totals.sum()).weights


class TestBuildStumpClass:
    def test_counts(self):
        H = build_stump_class(2, 7)
        assert len(H) == 2 * 2 * 7 + 2 == 30
        assert H.domain_size == 8**2

    def test_validation(self):
        with pytest.raises(ValueError, match="d"):
            build_stump_class(0, 7)
        with pytest.raises(ValueError, match="k"):
            build_stump_class(2, 0)

    @pytest.mark.parametrize("d, k", [(8, 15), (64, 1), (5, 15), (1, 2**40)])
    def test_a_class_over_the_entry_limit_is_refused_before_allocation(self, d, k):
        with mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
            with pytest.raises(ValueError, match=f"STUMP_CLASS_LIMIT = {STUMP_CLASS_LIMIT}"):
                build_stump_class(d, k)

    def test_the_class_is_read_only(self):
        H = build_stump_class(2, 3)
        assert not H.matrix.flags.writeable
        with pytest.raises(ValueError):
            H.matrix[0, 0] = -1

    def test_the_build_holds_the_matrix_alone(self):
        # the rows are written in place and the matrix is adopted, not copied:
        # the parent build peaked at 16.2 MiB for this 7.6 MiB matrix
        entries = (2 * 4 * 15 + 2) * 16**4
        assert peak_bytes(lambda: build_stump_class(4, 15)) < entries + 64 * 2**10

    def test_shapes_and_constant_rows(self):
        H = build_stump_class(2, 7)
        # constants follow both stump blocks, and no stump row is constant
        constant = (H.matrix == H.matrix[:, :1]).all(axis=1)
        np.testing.assert_array_equal(np.flatnonzero(constant), [2 * 2 * 7, 2 * 2 * 7 + 1])
        assert (H.matrix[-2] == 1).all() and (H.matrix[-1] == -1).all()

    def test_stump_semantics_on_a_line(self):
        H = build_stump_class(1, 3)
        assert H.domain_size == 4  # position p is the point x = p
        # row t: 1{x <= t}; rows k..2k-1 are the polarities flipped
        assert np.array_equal(H.matrix[1], np.array([1, 1, -1, -1], dtype=np.int8))
        assert np.array_equal(H.matrix[3 + 1], -H.matrix[1])

    def test_lexicographic_domain(self):
        # positions 0..3 are the points (0, 0), (0, 1), (1, 0), (1, 1): row 0
        # is 1{x_0 <= 0} and row 1 is 1{x_1 <= 0}
        H = build_stump_class(2, 1)
        assert H.domain_size == 4
        np.testing.assert_array_equal(H.matrix[:2], [[1, 1, -1, -1], [1, -1, 1, -1]])

    @pytest.mark.parametrize("d, k", [(1, 1), (2, 7), (3, 5), (4, 15)])
    def test_matrix_is_frozen_against_the_point_by_point_build(self, d, k):
        # The class as it was built before the lattice was vectorized: one
        # row per (feature, threshold) over the d-tuples in product order.
        coords = np.array(list(itertools.product(range(k + 1), repeat=d)))
        rows = [
            np.where(coords[:, a] <= t, 1, -1).astype(np.int8)
            for a in range(d) for t in range(k)
        ]
        rows += [-r for r in rows]
        rows += [np.ones(len(coords), dtype=np.int8), -np.ones(len(coords), dtype=np.int8)]
        matrix = build_stump_class(d, k).matrix
        assert matrix.dtype == np.int8
        assert matrix.shape == (2 * d * k + 2, (k + 1) ** d)
        assert matrix.tobytes() == np.vstack(rows).tobytes()


class TestStumpShape:
    @pytest.mark.parametrize("d, k", [(1, 1), (2, 1), (1, 3), (2, 7), (3, 5), (4, 15)])
    def test_recognizes_every_built_class(self, d, k):
        assert _stump_shape(build_stump_class(d, k)) == (d, k)

    def test_the_check_holds_one_block_at_a_time(self):
        # one (k, (k+1)^d) bool comparison at a time, no copied block: the
        # parent check peaked at 2.8 MiB here
        H = build_stump_class(4, 15)
        assert peak_bytes(lambda: _stump_shape(H)) < 15 * 16**4 + 64 * 2**10

    def test_one_flipped_entry_is_not_a_stump_class(self):
        H = build_stump_class(2, 3)
        for row, column in [(0, 5), (7, 0), (9, 15)]:
            matrix = H.matrix.copy()
            matrix[row, column] *= -1
            assert _stump_shape(HypothesisClass(matrix)) is None

    def test_a_class_of_the_stump_shape_is_not_always_a_stump_class(self):
        H = build_stump_class(2, 3)
        # right shape and constants, the wrong rows
        assert _stump_shape(HypothesisClass(np.vstack([-H.matrix[:-2], H.matrix[-2:]]))) is None
        # the stump rows without their negations, padded to the same |H|
        assert _stump_shape(HypothesisClass(np.vstack([H.matrix[:6], H.matrix[:6], H.matrix[-2:]]))) is None
        assert _stump_shape(HypothesisClass(H.matrix[:-2])) is None
        assert _stump_shape(HypothesisClass(H.matrix[:, :-1])) is None

    def test_refuses_a_class_whose_last_two_rows_are_not_the_constants(self):
        H = build_stump_class(2, 3)
        for last_two in ([-1, -2], [-2, -2], [-1, -1], [0, -1], [-2, 0]):
            matrix = np.vstack([H.matrix[:-2], H.matrix[last_two]])
            assert _stump_shape(HypothesisClass(matrix)) is None
            with pytest.raises(ValueError, match="stump class"):
                generate_synthetic(HypothesisClass(matrix), 10, 0.1, stream(10, 0))


class TestGenerateSynthetic:
    def test_deterministic_given_the_seed(self):
        H = build_stump_class(2, 3)
        D1, S1 = generate_synthetic(H, 50, 0.1, stream(7, 0))
        D2, S2 = generate_synthetic(H, 50, 0.1, stream(7, 0))
        assert np.array_equal(D1.atoms.positions, D2.atoms.positions)
        assert np.array_equal(D1.atoms.labels, D2.atoms.labels)
        assert np.array_equal(D1.probabilities, D2.probabilities)
        assert np.array_equal(S1.positions, S2.positions)
        assert np.array_equal(S1.labels, S2.labels)

    def test_noise_free_distribution_is_uniform_over_true_labels(self):
        H = build_stump_class(2, 3)
        D, S = generate_synthetic(H, 50, 0.0, stream(8, 0))
        assert len(D.atoms) == H.domain_size
        assert np.allclose(D.probabilities, 1.0 / H.domain_size)
        assert len(S) == 50

    def test_noise_mass_is_the_flip_probability(self):
        H = build_stump_class(2, 3)
        noise = 0.2
        D, _ = generate_synthetic(H, 50, noise, stream(9, 0))
        assert len(D.atoms) == 2 * H.domain_size
        per_point = {}
        for point, prob in zip(D.atoms.positions, D.probabilities):
            per_point.setdefault(point, []).append(prob)
        flip_mass = sum(min(probs) for probs in per_point.values())
        assert flip_mass == pytest.approx(noise, abs=1e-12)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_atoms_are_point_major_true_label_first(self, noise):
        # This layout fixes the probability vector the sampler sees, and so
        # every sample drawn from the task.
        H = build_stump_class(2, 3)
        D, _ = generate_synthetic(H, 50, noise, stream(9, 0))
        size = H.domain_size
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
        H = build_stump_class(1, 2)
        with pytest.raises(ValueError, match="noise"):
            generate_synthetic(H, 10, 0.5, stream(10, 0))
        with pytest.raises(ValueError, match="noise"):
            generate_synthetic(H, 10, -0.1, stream(10, 0))
        with pytest.raises(ValueError, match="n"):
            generate_synthetic(H, 0, 0.1, stream(10, 0))

    def test_rejects_a_class_that_is_not_a_stump_class(self):
        H = build_stump_class(1, 2)
        no_constants = HypothesisClass(H.matrix[:-2])
        constants_first = HypothesisClass(H.matrix[::-1])
        only_constants = HypothesisClass(H.matrix[-2:])
        for bad in (no_constants, constants_first, only_constants):
            with pytest.raises(ValueError, match="stump class"):
                generate_synthetic(bad, 10, 0.1, stream(10, 0))


class TestAdaboost:
    def test_deterministic_and_reaches_zero_training_error(self):
        H, _, S = separable_task()
        run1 = adaboost(S, H, 60)
        run2 = adaboost(S, H, 60)
        assert run1.rounds == run2.rounds
        assert np.array_equal(run1.classifier.weights, run2.classifier.weights)
        assert run1.status == run2.status
        assert isinstance(run1, BoostingRun)
        assert run1.status == "completed"
        assert run1.T_completed == 60
        assert run1.rounds[-1].train_error == 0.0
        assert run1.rounds[-1].min_margin > 0.0
        assert abs(float(run1.classifier.weights.sum()) - 1.0) <= 1e-12

    def test_round_trace_invariants(self):
        H, _, S = separable_task()
        run = adaboost(S, H, 40)
        exp_losses = [r.exp_loss for r in run.rounds]
        assert all(r.epsilon < 0.5 for r in run.rounds)
        assert all(r.alpha > 0.0 for r in run.rounds)
        # the exponential surrogate dominates the 0-1 error and is monotone
        assert all(r.train_error <= r.exp_loss + 1e-12 for r in run.rounds)
        assert all(a >= b - 1e-12 for a, b in zip(exp_losses, exp_losses[1:]))
        assert [r.round for r in run.rounds] == list(range(1, 41))

    def test_single_round_is_a_point_mass_on_the_best_stump(self):
        H, _, S = separable_task()
        run = adaboost(S, H, 1)
        assert run.T_completed == 1
        best = run.rounds[0].hypothesis
        assert run.classifier.weights[best] == 1.0

    def test_perfect_hypothesis_ends_the_run(self):
        H = build_stump_class(1, 3)
        # labels realized by the stump 1{x <= 1}, which is row 1
        S = sample(H.domain_size, [(0, 1), (1, 1), (2, -1), (3, -1)])
        run = adaboost(S, H, 10)
        assert run.status == "perfect-hypothesis"
        assert run.T_completed == 1
        assert run.rounds[0].epsilon == 0.0
        assert run.rounds[0].min_margin == 1.0
        assert run.classifier.weights[1] == 1.0
        # the clamp keeps the recorded alpha finite
        assert run.rounds[0].alpha == 0.5 * math.log((1.0 - EPSILON_CLAMP) / EPSILON_CLAMP)

    def test_early_stop_when_no_hypothesis_beats_chance(self):
        H = build_stump_class(1, 1)
        # both labels at both points: every hypothesis has error exactly 1/2
        S = sample(H.domain_size, [(0, 1), (0, -1), (1, 1), (1, -1)])
        run = adaboost(S, H, 5)
        assert run.status == "early-stop"
        assert run.T_completed == 0
        assert np.allclose(run.classifier.weights, 1.0 / len(H))

    def test_an_error_of_one_half_stops_both_error_paths(self):
        # Every error here is 6/12.  The stump path's sums give 0.5; the
        # generic path adds 1/12 six times and gives 0.49999999999999994.
        H = build_stump_class(3, 1)
        _, S = generate_synthetic(H, 12, 0.3, stream(40622624, 0))
        stump = adaboost(S, H, 1)
        with mock.patch.object(boosting, "_stump_shape", lambda H: None):
            generic = adaboost(S, H, 1)
        for run in (stump, generic):
            assert (run.status, run.T_completed) == ("early-stop", 0)
            assert np.array_equal(run.classifier.weights, np.full(len(H), 1.0 / len(H)))

    def test_round_and_weight_bits_are_frozen(self):
        H, S = frozen_task()
        run = adaboost(S, H, 6)
        assert run.status == "completed"
        assert [(r.hypothesis, r.epsilon.hex(), r.alpha.hex()) for r in run.rounds] == FROZEN_ROUNDS
        assert [float(w).hex() for w in run.classifier.weights] == FROZEN_WEIGHTS

    def test_reference_loop_reproduces_the_frozen_bits(self):
        _, S = frozen_task()
        rounds, _, weights = reference_stump_adaboost(S, 1, 3, 6)
        assert [(h, eps.hex(), alpha.hex()) for h, eps, alpha in rounds] == FROZEN_ROUNDS
        assert [float(w).hex() for w in weights] == FROZEN_WEIGHTS

    def test_reference_loop_matches_a_larger_run_bit_for_bit(self):
        H = build_stump_class(2, 3)
        _, S = generate_synthetic(H, 150, 0.1, stream(12, 0))
        run = adaboost(S, H, 12)
        rounds, _, weights = reference_stump_adaboost(S, 2, 3, 12)
        assert [(r.hypothesis, r.epsilon, r.alpha) for r in run.rounds] == rounds
        assert run.classifier.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize(
        "d, k, n, noise, seed, T",
        [(1, 3, 60, 0.2, 11, 6), (2, 3, 150, 0.1, 12, 12), (4, 15, 2000, 0.1, 14, 10)],
        ids=["frozen", "larger", "workload-class"],
    )
    def test_round_statistics_match_the_margins_bit_for_bit(self, d, k, n, noise, seed, T):
        # train_error, min_margin and exp_loss as formed from the n-vector
        # of margins score / Σα: on the stump path against the reference
        # loop, and on the generic path against its own picks and α's.
        H = build_stump_class(d, k)
        _, S = generate_synthetic(H, n, noise, stream(seed, 0))
        run = adaboost(S, H, T)
        rounds, stats, _ = reference_stump_adaboost(S, d, k, T)
        assert [(r.hypothesis, r.epsilon, r.alpha) for r in run.rounds] == rounds
        assert run_statistics(run) == stats
        with mock.patch.object(boosting, "_stump_shape", lambda H: None):
            generic = adaboost(S, H, T)
        agreement = H.sample_values(S) * S.labels
        assert run_statistics(generic) == margin_statistics(
            agreement, [r.hypothesis for r in generic.rounds], [r.alpha for r in generic.rounds]
        )

    def test_round_statistics_count_a_score_of_exactly_zero_as_an_error(self):
        # Two rounds with equal α on hypotheses that disagree on 5 of the 8
        # points: the constant −1, then 1{x_0 <= 0}.  Those 5 scores are 0.0.
        H = build_stump_class(1, 1)
        S = sample(2, zip([0, 1, 0, 0, 1, 0, 1, 0], [-1, -1, 1, -1, -1, -1, -1, 1]))
        agreement = H.sample_values(S) * S.labels
        paths = [adaboost(S, H, 2)]
        with mock.patch.object(boosting, "_stump_shape", lambda H: None):
            paths.append(adaboost(S, H, 2))
        _, stats, _ = reference_stump_adaboost(S, 1, 1, 2)
        for run in paths:
            first, second = run.rounds
            assert (first.hypothesis, second.hypothesis) == (3, 0)
            assert first.alpha == second.alpha
            score = first.alpha * agreement[3] + second.alpha * agreement[0]
            assert np.count_nonzero(score == 0.0) == 5
            assert (second.train_error, second.min_margin) == (5 / 8, 0.0)
            assert run_statistics(run) == stats

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 3),
        k=st.integers(1, 5),
        n=st.integers(1, 80),
        noise=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 15),
    )
    def test_stump_and_generic_errors_pick_the_same_hypotheses(self, d, k, n, noise, seed, T):
        # The stump path, and the generic path forced by hiding the class's
        # shape, on the same instance.  Their picks agree until two errors
        # tie within rounding, where either pick is a minimizer; the stump
        # path's own errors at that round show the tie.
        H = build_stump_class(d, k)
        _, S = generate_synthetic(H, n, noise, stream(seed, 0))
        stump_errors = []
        real = boosting._stump_errors

        def record(keys, w, k, out):
            real(keys, w, k, out)
            stump_errors.append(out.copy())

        with mock.patch.object(boosting, "_stump_errors", record):
            stump = adaboost(S, H, T)
        with mock.patch.object(boosting, "_stump_shape", lambda H: None):
            generic = adaboost(S, H, T)
        assert len(stump_errors) >= stump.T_completed
        for r, (a, b) in enumerate(zip(stump.rounds, generic.rounds)):
            if a.hypothesis != b.hypothesis:
                errors = stump_errors[r]
                assert errors[b.hypothesis] - errors[a.hypothesis] <= 1e-13
                break
            assert abs(a.epsilon - b.epsilon) <= 1e-13
        else:
            assert (stump.status, stump.T_completed) == (generic.status, generic.T_completed)
            np.testing.assert_allclose(
                stump.classifier.weights, generic.classifier.weights, rtol=0, atol=1e-12
            )

    def test_a_class_with_two_stump_rows_swapped_takes_the_generic_path(self):
        H = build_stump_class(2, 3)
        matrix = H.matrix.copy()
        matrix[[0, 1]] = matrix[[1, 0]]
        swapped = HypothesisClass(matrix)
        np.testing.assert_array_equal(swapped.matrix[-2:], H.matrix[-2:])
        assert _stump_shape(swapped) is None
        _, S = generate_synthetic(H, 200, 0.1, stream(13, 0))
        with mock.patch.object(boosting, "_stump_errors", side_effect=AssertionError):
            run = adaboost(S, swapped, 10)
        # Each ε against a correctly rounded sum, re-run in the same picks.
        mismatch = swapped.sample_values(S) != S.labels
        agreement = swapped.sample_values(S) * S.labels
        w = np.full(len(S), 1.0 / len(S))
        assert run.T_completed == 10
        for r in run.rounds:
            exact = [math.fsum(w[row].tolist()) for row in mismatch]
            assert r.hypothesis == int(np.argmin(exact))
            assert abs(r.epsilon - exact[r.hypothesis]) <= 1e-15
            w = w * np.exp(-r.alpha * agreement[r.hypothesis])
            w /= w.sum()

    def test_T_is_validated(self):
        H, _, S = separable_task(n=20)
        with pytest.raises(ValueError, match="T"):
            adaboost(S, H, 0)


class TestMarginHistogram:
    def test_counts_and_cumulative_match_the_margin_loss(self):
        H, _, S = separable_task()
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
        H = build_stump_class(1, 1)
        S = sample(H.domain_size, [(0, 1), (1, -1)])
        # equal weight on the two constants makes every margin exactly 0
        f = VotingClassifier([0.0, 0.0, 0.5, 0.5])
        hist = margin_histogram(f, H, S, bin_count=4)
        assert hist.counts == (0, 2, 0, 0)  # the (−0.5, 0] bin
        assert hist.cumulative_fraction()[1] == 1.0  # loss at θ = 0 counts ties

    def test_extreme_margins_are_kept(self):
        H = build_stump_class(1, 1)
        S = sample(H.domain_size, [(0, 1), (1, -1)])
        f = VotingClassifier([0.0, 0.0, 1.0, 0.0])  # constant +1
        hist = margin_histogram(f, H, S, bin_count=4)
        assert hist.counts[0] == 1 and hist.counts[-1] == 1

    def test_bin_count_is_validated(self):
        H, _, S = separable_task(n=20)
        f = VotingClassifier(np.full(len(H), 1.0 / len(H)))
        with pytest.raises(ValueError, match="bin_count"):
            margin_histogram(f, H, S, bin_count=1)
