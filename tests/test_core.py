"""Unit tests for the core model types and margin-loss primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemargin.core import (
    DataDistribution,
    HypothesisClass,
    LabeledSample,
    VotingClassifier,
    empirical_margin_loss,
    margins_on_sample,
    margins_on_support,
    true_margin_loss,
)
from votemargin.rng import stream

from labeled import distribution, sample


def small_class():
    """Three hypotheses over the four points {0, 1, 2, 3}, used across tests."""
    return HypothesisClass(
        np.array(
            [
                [1, 1, -1, -1],
                [1, -1, 1, -1],
                [-1, 1, 1, 1],
            ],
            dtype=np.int8,
        )
    )


class TestHypothesis:
    """A single hypothesis is a one-row class matrix."""

    @pytest.mark.parametrize("bad", [255, -128, 1.7, float("nan")])
    def test_values_are_checked_before_the_int8_cast(self, bad):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            HypothesisClass(np.array([[bad, 1]]))
        with pytest.raises(ValueError, match="\\+1 or -1"):
            HypothesisClass([[bad, 1]])


class TestHypothesisClass:
    @pytest.mark.parametrize("bad", [255, -128, 1.7, float("nan"), 1j])
    def test_values_are_checked_before_the_int8_cast(self, bad):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            HypothesisClass(np.array([[bad, 1], [1, -1]]))
        with pytest.raises(ValueError, match="\\+1 or -1"):
            HypothesisClass([[bad, 1], [1, -1]])

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[255, 1], [1, 1]], dtype=np.uint8),
            np.array([[0, 1], [1, -1]], dtype=np.int8),
            np.array([[2, 1], [1, -1]], dtype=np.int16),
            np.array([[-2, 1], [1, -1]]),
            np.array([[2**40, 1], [1, -1]]),
            np.array([["1", "-1"], ["1", "-1"]]),
        ],
        ids=["uint8-255", "int8-0", "int16-2", "int64-minus-2", "int64-huge", "str"],
    )
    def test_integer_arrays_are_checked_by_their_range_and_zeros(self, bad):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            HypothesisClass(bad)

    def test_valid_integer_arrays_of_any_width_become_int8(self):
        sources = [
            np.array([[1, -1], [-1, -1]], dtype=np.int8),
            np.array([[1, -1], [-1, -1]], dtype=np.int64),
            np.array([[1, 1]], dtype=np.uint8),
        ]
        for source in sources:
            H = HypothesisClass(source)
            assert H.matrix.dtype == np.int8
            np.testing.assert_array_equal(H.matrix, source)

    def test_valid_values_of_any_dtype_become_int8(self):
        source = np.array([[1.0, -1.0], [-1.0, -1.0]])
        H = HypothesisClass(source)
        assert H.matrix.dtype == np.int8
        np.testing.assert_array_equal(H.matrix, source)

    def test_domain_size_is_the_column_count(self):
        H = small_class()
        assert H.domain_size == 4 and len(H) == 3
        assert HypothesisClass([[1, -1, 1]]).domain_size == 3

    @pytest.mark.parametrize(
        "matrix",
        [np.empty((0, 3)), np.empty((2, 0)), [], [1, -1], [[[1]]]],
        ids=["no-rows", "no-columns", "empty", "1-d", "3-d"],
    )
    def test_rejects_an_empty_or_non_2d_matrix(self, matrix):
        with pytest.raises(ValueError, match="shape"):
            HypothesisClass(matrix)

    def test_constant_detection(self):
        # constant rows are ordinary rows: kept in place, none singled out
        H = HypothesisClass([[1, 1], [1, -1], [-1, -1]])
        np.testing.assert_array_equal(H.matrix, [[1, 1], [1, -1], [-1, -1]])
        assert len(H) == 3 and HypothesisClass.__slots__ == ("matrix", "domain_size")

    def test_duplicate_constants_accepted(self):
        H = HypothesisClass(np.array([[1, 1], [-1, -1], [1, 1]], dtype=np.int8))
        assert len(H) == 3
        f = VotingClassifier([0.25, 0.25, 0.5])
        np.testing.assert_array_equal(f.values_on(H), [0.5, 0.5])

    def test_duplicate_nonconstants_allowed(self):
        H = HypothesisClass(np.array([[1, -1], [1, -1]], dtype=np.int8))
        assert len(H) == 2

    def test_sample_values_selects_columns(self):
        H = small_class()
        S = sample(4, [(2, 1), (0, -1), (2, 1)])
        np.testing.assert_array_equal(
            H.sample_values(S),
            np.array([[-1, 1, -1], [1, 1, 1], [1, -1, 1]], dtype=np.int8),
        )

    @pytest.mark.parametrize(
        "rows, size, n", [(1, 5, 7), (4, 3, 1), (1, 1, 1), (6, 9, 30), (30, 4, 25), (17, 40, 3)]
    )
    def test_sample_values_are_c_contiguous_rows(self, rows, size, n):
        # One row per hypothesis, each row one run of n bytes, with the
        # values of the column selection.
        rng = np.random.default_rng([rows, size, n])
        H = HypothesisClass(rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, size)))
        S = LabeledSample(size, rng.integers(0, size, n), rng.choice([-1, 1], n))
        values = H.sample_values(S)
        assert values.flags.c_contiguous and values.dtype == np.int8
        assert values.shape == (rows, n)
        np.testing.assert_array_equal(values, H.matrix[:, S.positions])

    def test_matrix_is_readonly(self):
        H = small_class()
        with pytest.raises(ValueError):
            H.matrix[0, 0] = -1

    def test_a_callers_int8_array_is_copied_and_stays_writable(self):
        source = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        H = HypothesisClass(source)
        assert source.flags.writeable and not np.shares_memory(source, H.matrix)
        source[0, 0] = -1
        np.testing.assert_array_equal(H.matrix, [[1, -1], [-1, -1]])

    def test_an_adopted_matrix_is_frozen_in_place(self):
        matrix = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        H = HypothesisClass._adopt(matrix)
        assert H.matrix is matrix and not matrix.flags.writeable
        assert H.domain_size == 2 and len(H) == 2

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0, 1], [1, -1]], dtype=np.int8), np.array([[1, 1], [1, -128]], dtype=np.int8)],
        ids=["zero", "minus-128"],
    )
    def test_an_adopted_matrix_is_checked_with_the_public_message(self, bad):
        with pytest.raises(ValueError, match="^hypothesis values must be \\+1 or -1$"):
            HypothesisClass._adopt(bad)
        assert bad.flags.writeable

    def test_only_an_int8_matrix_is_adopted(self):
        with pytest.raises(TypeError, match="int8"):
            HypothesisClass._adopt(np.array([[1, -1]]))


class TestVotingClassifier:
    def test_weights_are_renormalized_exactly(self):
        f = VotingClassifier(np.array([0.2, 0.3, 0.5 + 1e-13]))
        assert f.weights.sum() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            VotingClassifier(np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            VotingClassifier(np.array([0.2, 0.2]))
        with pytest.raises(ValueError, match="finite"):
            VotingClassifier(np.array([np.inf, 0.5]))
        with pytest.raises(ValueError, match="1-d"):
            VotingClassifier(np.array([[0.5, 0.5]]))

    def test_point_mass(self):
        f = VotingClassifier.point_mass(1, 3)
        np.testing.assert_array_equal(f.weights, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_point_mass_rejects_an_index_outside_the_class(self, index):
        with pytest.raises(ValueError, match="index"):
            VotingClassifier.point_mass(index, 3)

    def test_values_on_requires_matching_size(self):
        H = small_class()
        with pytest.raises(ValueError, match="weights"):
            VotingClassifier(np.array([0.5, 0.5])).values_on(H)

    def test_point_mass_recovers_hypothesis_values(self):
        H = small_class()
        f = VotingClassifier.point_mass(2, 3)
        np.testing.assert_array_equal(f.values_on(H), H.matrix[2].astype(float))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3).filter(
            lambda w: sum(w) > 1e-6
        )
    )
    def test_values_stay_in_unit_interval(self, raw):
        H = small_class()
        f = VotingClassifier(np.asarray(raw) / sum(raw))
        values = f.values_on(H)
        assert (values >= -1.0).all() and (values <= 1.0).all()


class TestLabeledSample:
    def test_order_and_labels(self):
        S = sample(4, [(1, 1), (0, -1), (1, -1)])
        assert S.domain_size == 4 and len(S) == 3
        np.testing.assert_array_equal(S.positions, [1, 0, 1])
        np.testing.assert_array_equal(S.labels, [1, -1, -1])
        assert S.positions.dtype == np.intp and S.labels.dtype == np.int8

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            LabeledSample(4, np.array([], dtype=np.intp), [])
        with pytest.raises(ValueError, match="label"):
            sample(4, [(0, 2)])

    def test_arrays_are_read_only_copies(self):
        positions, labels = np.array([0, 3]), np.array([1, -1])
        S = LabeledSample(4, positions, labels)
        positions[0], labels[0] = 2, -1
        np.testing.assert_array_equal(S.positions, [0, 3])
        np.testing.assert_array_equal(S.labels, [1, -1])
        with pytest.raises(ValueError):
            S.positions[0] = 1
        with pytest.raises(ValueError):
            S.labels[0] = -1

    @pytest.mark.parametrize(
        "positions",
        [
            [-1, 0],
            [0, 4],
            [0.0, 1.0],
            [True, False],
            [[0, 1]],
            [0, 2**64],
        ],
        ids=["negative", "out-of-range", "float", "bool", "2-d", "huge"],
    )
    def test_rejects_bad_positions(self, positions):
        with pytest.raises(ValueError, match="positions"):
            LabeledSample(4, positions, [1, -1])

    @pytest.mark.parametrize("labels", [[1], [1, -1, 1]])
    def test_rejects_a_length_mismatch(self, labels):
        with pytest.raises(ValueError, match="2 positions"):
            LabeledSample(4, [0, 1], labels)


class TestDataDistribution:
    def test_probabilities_renormalized(self):
        D = distribution(4, {(0, 1): 0.25, (1, -1): 0.75 + 1e-13})
        assert D.probabilities.sum() == 1.0
        assert len(D) == 2

    @pytest.mark.parametrize(
        "masses", [(float("nan"), 1.0), (float("nan"), float("nan"))]
    )
    def test_non_finite_probabilities_rejected(self, masses):
        with pytest.raises(ValueError, match="finite"):
            distribution(4, {(0, 1): masses[0], (1, -1): masses[1]})

    def test_duplicate_atoms_rejected(self):
        # Two entries that normalize to one atom: same position, labels 1 and 1.0.
        with pytest.raises(ValueError, match="distinct"):
            DataDistribution(LabeledSample(4, [0, 0], [np.int8(1), 1.0]), [0.5, 0.5])
        # the check sorts the atoms, so a huge domain costs nothing
        atoms = LabeledSample(2**40, [2**40 - 1, 0, 2**40 - 1], [1, 1, -1])
        assert len(DataDistribution(atoms, [0.5, 0.25, 0.25])) == 3
        with pytest.raises(ValueError, match="distinct"):
            DataDistribution(LabeledSample(2**40, [5, 0, 5], [1, 1, 1]), [0.5, 0.25, 0.25])

    def test_same_point_with_both_labels_is_two_atoms(self):
        D = distribution(4, {(0, 1): 0.5, (0, -1): 0.5})
        assert len(D) == 2

    @pytest.mark.parametrize("probabilities", [[1.0], [0.5, 0.25, 0.25], [[0.5, 0.5]]])
    def test_rejects_probabilities_that_do_not_match_the_atoms(self, probabilities):
        atoms = sample(4, [(0, 1), (1, -1)])
        with pytest.raises(ValueError, match="shape"):
            DataDistribution(atoms, probabilities)

    def test_sample_is_reproducible(self):
        D = distribution(4, {(0, 1): 0.5, (1, -1): 0.5})
        S1 = D.sample(20, stream(7, 0))
        S2 = D.sample(20, stream(7, 0))
        assert S1.domain_size == 4
        np.testing.assert_array_equal(S1.positions, S2.positions)
        np.testing.assert_array_equal(S1.labels, S2.labels)


NON_SIGN_LABELS = [1.5, -1.7, "1", float("nan"), float("inf"), float("-inf")]


class TestLabelCheck:
    """Labels must equal +1 or -1; nothing is truncated or parsed."""

    @pytest.mark.parametrize("bad", NON_SIGN_LABELS)
    def test_labeled_sample_rejects(self, bad):
        with pytest.raises(ValueError, match="label"):
            sample(4, [(0, 1), (1, bad)])

    @pytest.mark.parametrize("bad", NON_SIGN_LABELS)
    def test_data_distribution_rejects(self, bad):
        with pytest.raises(ValueError, match="label"):
            distribution(4, {(0, 1): 0.5, (1, bad): 0.5})

    @pytest.mark.parametrize("bad", NON_SIGN_LABELS)
    def test_margin_rejects(self, bad):
        # a point's margin is margins_on_sample on a one-point sample
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        with pytest.raises(ValueError, match="label"):
            margins_on_sample(f, small_class(), LabeledSample(4, [0], [bad]))

    def test_sequences_of_signs_are_not_labels(self):
        with pytest.raises(ValueError, match="label"):
            sample(4, [(0, (1,)), (1, (-1,))])
        with pytest.raises(ValueError, match="label"):
            distribution(4, {(0, (1,)): 0.5, (1, (-1,)): 0.5})

    def test_values_equal_to_a_sign_are_accepted_as_ints(self):
        labels = [True, np.int8(-1), 1.0, np.float64(-1.0)]
        S = sample(4, enumerate(labels))
        assert S.labels.dtype == np.int8
        np.testing.assert_array_equal(S.labels, [1, -1, 1, -1])
        D = distribution(4, {(x, y): 0.25 for x, y in enumerate(labels)})
        assert D.atoms.labels.dtype == np.int8
        np.testing.assert_array_equal(D.atoms.positions, [0, 1, 2, 3])
        np.testing.assert_array_equal(D.atoms.labels, [1, -1, 1, -1])


class TestMarginsAndLosses:
    def test_margin_of_single_point(self):
        # a point's margin is margins_on_sample on a one-point sample
        H = small_class()
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        # f(0) = 0.5 + 0.25 - 0.25 = 0.5
        assert margins_on_sample(f, H, sample(4, [(0, 1)]))[0] == pytest.approx(0.5)
        assert margins_on_sample(f, H, sample(4, [(0, -1)]))[0] == pytest.approx(-0.5)

    def test_margins_on_sample_match_by_hand(self):
        H = small_class()
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        # f over (0, 1, 2, 3) = (0.5, 0.5, 0.0, -0.5)
        S = sample(4, [(0, 1), (1, -1), (2, 1), (3, -1)])
        np.testing.assert_allclose(
            margins_on_sample(f, H, S), [0.5, -0.5, 0.0, 0.5], atol=1e-15
        )

    def test_ties_count_as_losses(self):
        H = small_class()
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        S = sample(4, [(0, 1), (1, 1), (3, -1)])  # margins 0.5, 0.5, 0.5
        assert empirical_margin_loss(f, H, S, 0.5) == 1.0
        assert empirical_margin_loss(f, H, S, np.nextafter(0.5, 0.0)) == 0.0

    def test_zero_threshold_is_zero_one_loss(self):
        H = small_class()
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        S = sample(4, [(0, 1), (0, -1), (2, 1)])
        # margins: 0.5 (correct), -0.5 (wrong), 0.0 (tie counts as loss)
        assert empirical_margin_loss(f, H, S, 0.0) == pytest.approx(2.0 / 3.0)

    def test_true_loss_equals_empirical_on_empirical_distribution(self):
        H = small_class()
        f = VotingClassifier(np.array([0.2, 0.3, 0.5]))
        S = sample(4, [(0, 1), (1, -1), (1, -1), (3, 1)])
        D = distribution(4, {(0, 1): 0.25, (1, -1): 0.5, (3, 1): 0.25})
        for theta in (0.0, 0.1, 0.35, 0.9):
            assert true_margin_loss(f, H, D, theta) == pytest.approx(
                empirical_margin_loss(f, H, S, theta), abs=1e-15
            )

    def test_margins_on_support_orders_by_atom(self):
        H = small_class()
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        D = distribution(4, {(2, 1): 0.25, (0, -1): 0.75})
        m, p = margins_on_support(f, H, D)
        np.testing.assert_allclose(m, [0.0, -0.5], atol=1e-15)
        np.testing.assert_allclose(p, [0.25, 0.75])

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, H, S, D: H.sample_values(S),
            lambda f, H, S, D: margins_on_sample(f, H, S),
            lambda f, H, S, D: margins_on_support(f, H, D),
        ],
        ids=["sample_values", "margins_on_sample", "margins_on_support"],
    )
    def test_a_sample_over_another_domain_is_rejected(self, call):
        H = small_class()
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        # positions valid in both domains, but the sample's domain is larger
        S = sample(5, [(0, 1), (3, -1)])
        D = distribution(5, {(0, 1): 0.5, (3, -1): 0.5})
        with pytest.raises(ValueError, match="domain"):
            call(f, H, S, D)
        # the same points over a domain of the class's size are accepted
        S = sample(4, [(0, 1), (3, -1)])
        D = distribution(4, {(0, 1): 0.5, (3, -1): 0.5})
        call(f, H, S, D)

    def test_threshold_validation(self):
        H = small_class()
        f = VotingClassifier(np.array([0.5, 0.25, 0.25]))
        S = sample(4, [(0, 1)])
        with pytest.raises(ValueError, match="threshold"):
            empirical_margin_loss(f, H, S, -0.1)
        with pytest.raises(ValueError, match="threshold"):
            empirical_margin_loss(f, H, S, 1.5)
