"""Unit tests for randomized discretization and the exact binomial margin law."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votemargin import discretize
from votemargin.boosting import build_stump_class
from votemargin.core import (
    HypothesisClass,
    PreconditionError,
    VotingClassifier,
    empirical_margin_loss,
    margins_on_sample,
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
from votemargin.harness.checks import (
    _FIVE_SIGMA_LEVEL,
    binomial_ci,
    random_distribution,
    random_hypothesis_class,
    random_voting,
)
from votemargin.phirho import PhiRhoParams, phi_many
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
    H = random_hypothesis_class(rng, n_points, n_hyps)
    D = random_distribution(rng, n_points)
    return random_voting(rng, n_hyps), H, D, D.sample(n_sample, rng)


def count_values_on(monkeypatch) -> dict:
    """Patch both voters' ``values_on`` to count their calls, by class name."""
    calls = {}
    for cls in (VotingClassifier, DiscretizedClassifier):
        original = cls.values_on

        def counted(self, H, original=original, name=cls.__name__):
            calls[name] = calls.get(name, 0) + 1
            return original(self, H)

        monkeypatch.setattr(cls, "values_on", counted)
    return calls


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

    @given(N=st.integers(1, 2**53), eta=st.floats(-1.0, 1.0, allow_subnormal=True))
    @example(N=2**53, eta=0.0)
    @example(N=2**53, eta=-0.0)
    @example(N=2**53 - 1, eta=5e-324)
    @example(N=2**53 - 1, eta=-5e-324)
    def test_matches_the_rational_formula(self, N, eta):
        assert k_star(N, eta) == int((Fraction(eta) + 1) * N // 2) + 1

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

    def test_rounding_midpoint_falls_back_to_exact_loop(self, monkeypatch):
        # p = 0.35 needs 54 significant bits: the tail at N = 1 is a midpoint
        # between two doubles, which no finite bracket can round, so the one
        # 64-bit front gives up and the exact loop answers
        calls = []
        for name in ("_front_tail", "_exact_tail"):
            original = getattr(discretize, name)

            def spy(*problem, name=name, original=original):
                calls.append(name)
                return original(*problem)

            monkeypatch.setattr(discretize, name, spy)
        value = binom_margin_tail(1, -0.3, 0.0)
        assert calls == ["_front_tail", "_exact_tail"]
        assert value == float(exact_tail(1, -0.3, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(
        N=st.integers(1, 6000),
        fraction=st.floats(0.0, 1.0),
        bits=st.sampled_from([8, 64, 128]),
    )
    def test_truncated_coefficient_brackets_the_binomial(self, N, fraction, bits):
        # C·(1 − 2^−(bits−1))^(2c+1) ≤ m·2^s ≤ C, in integers
        k = round(fraction * N)
        m, s = discretize._comb_lower(N, k, bits)
        C = math.comb(N, k)
        c = -(-min(k, N - k) // discretize._COMB_CHUNK)
        lo_m, lo_C = (m << s, C) if s >= 0 else (m, C << -s)
        assert lo_m <= lo_C
        e = 2 * c + 1
        assert lo_m << ((bits - 1) * e) >= lo_C * ((1 << (bits - 1)) - 1) ** e
        assert m.bit_length() >= bits

    def test_front_equals_exact_loop_over_many_coefficient_chunks(self):
        # N up to 3000 puts up to 12 chunks of 128 factors in each product
        rng = stream(8, 0)
        for _ in range(12):
            N = int(rng.integers(600, 3001))
            lam = float(rng.uniform(-0.2, 0.2))
            eta = float(rng.choice([0.0, 0.1, lam]))
            assert binom_margin_tail(N, lam, eta).hex() == exact_loop(N, lam, eta).hex()

    def test_large_N_answers_from_the_front(self, monkeypatch):
        # values the front gave when it formed C(N, k) exactly (10-12 s each);
        # the truncated coefficient gives them in about 0.15 s
        monkeypatch.setattr(discretize, "_exact_tail", None)
        assert binom_margin_tail(2**20, 0.001, 0.0) == 0.8468517360330426
        assert binom_margin_tail(2**20, 0.0012, 0.001) == 0.5809742384058163

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

    def test_pinned_at_the_largest_N(self):
        # Pr[Binom(2^20, 5/8) >= k*(1/4)], summed term by term in mpmath at 50
        # digits; bdtrc is off by 4.3e-9 here, the most measured at N = 2^20
        tail = binom_margin_tail_batch(2**20, [0.25], 0.25)[0]
        assert tail == pytest.approx(0.4996311618549192698, abs=5e-9)

    def test_N_above_2_20_is_refused(self):
        # past 2^20 bdtrc leaves the exact tail fast (1.2e-6 at N = 2^21)
        with pytest.raises(ValueError, match="N must be an integer in \\[1, 1048576\\]"):
            binom_margin_tail_batch(2**20 + 1, [0.25], 0.25)
        assert binom_margin_tail(2**20 + 1, 1.0, 0.25) == 1.0  # the scalar tail goes on

    def test_every_vectorized_path_names_the_batch_limit(self):
        f, H, D, _ = random_instance(93)
        calls = [
            lambda N: binom_margin_tail_batch(N, [0.25], 0.25),
            lambda N: phi_many([-0.1], PhiRhoParams(0.5, N)),
            lambda N: expected_half_margin_loss_bound_check(f, H, D, 0.5, N),
            lambda N: margin_law_monotone_check(N, 0.0, [0.0, 0.5]),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(2**21)
            assert str(info.value) == (
                "N must be an integer in [1, 1048576], got 2097152: 2**20 is the largest N "
                "the vectorized tail is accurate for; the scalar tail binom_margin_tail "
                "takes N up to 2**53"
            )

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
        return HypothesisClass(
            np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=np.int8)
        )

    def test_values_average_the_drawn_rows(self):
        H = self.small()
        g = DiscretizedClassifier(H, [0, 0, 1, 2])
        expected = (2 * H.matrix[0] + H.matrix[1] + H.matrix[2]) / 4.0
        assert np.array_equal(g.values_on(H), expected)
        assert g.N == 4
        for t in range(20):  # bit for bit the float mean of the drawn rows
            rng = stream(8, t)
            H = random_hypothesis_class(rng, int(rng.integers(2, 200)), int(rng.integers(1, 40)))
            idx = rng.integers(0, len(H), size=int(rng.integers(1, 600)))
            reference = H.matrix[idx].astype(np.float64).mean(axis=0)
            assert DiscretizedClassifier(H, idx).values_on(H).tobytes() == reference.tobytes()

    def test_values_make_no_float_copy_of_the_drawn_rows(self):
        # N = 256 draws over 122 x 65 536 stumps, where an N x |X| float64
        # copy would take 128 MB
        H = build_stump_class(4, 15)
        g = DiscretizedClassifier(H, stream(8, 99).integers(0, len(H), size=256))
        tracemalloc.start()
        try:
            g.values_on(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_margins_on_sample_and_support(self):
        H = self.small()
        g = DiscretizedClassifier(H, [0, 2])
        S = sample(3, [(0, 1), (2, -1), (0, 1)])
        values = g.values_on(H)
        assert np.array_equal(
            margins_on_sample(g, H, S), np.array([values[0], -values[2], values[0]])
        )
        D = distribution(3, {(0, 1): 0.5, (1, -1): 0.5})
        margins, probs = margins_on_support(g, H, D)
        assert np.array_equal(margins, np.array([values[0], -values[1]]))
        assert np.array_equal(probs, np.array([0.5, 0.5]))

    def test_margins_reject_a_sample_over_another_domain(self):
        H = self.small()
        g = DiscretizedClassifier(H, [0, 2])
        with pytest.raises(ValueError, match="domain"):
            margins_on_sample(g, H, sample(4, [(0, 1)]))
        with pytest.raises(ValueError, match="domain"):
            margins_on_support(g, H, distribution(2, {(1, 1): 1.0}))

    def test_as_voting_uses_draw_frequencies(self):
        # g is the voting classifier whose weights are the draw frequencies
        H = self.small()
        g = DiscretizedClassifier(H, [0, 0, 2, 0])
        f = VotingClassifier([0.75, 0.0, 0.25])
        assert np.array_equal(g.values_on(H), f.values_on(H))

    def test_core_margins_and_losses_of_g_are_those_of_its_values(self):
        for seed in range(10):
            f, H, D, S = random_instance(seed, n_points=12, n_hyps=5)
            g = sample_discretization(f, H, 7, stream(seed, 1))
            values = g.values_on(H)
            margins = S.labels * values[S.positions]
            atom_margins = D.atoms.labels * values[D.atoms.positions]
            assert margins_on_sample(g, H, S).tobytes() == margins.tobytes()
            m, p = margins_on_support(g, H, D)
            assert m.tobytes() == atom_margins.tobytes() and p is D.probabilities
            for theta in (0.0, 3 / 7, 1.0):
                loss = float(np.count_nonzero(margins <= theta)) / len(S)
                assert empirical_margin_loss(g, H, S, theta) == loss
                assert true_margin_loss(g, H, D, theta) == float(
                    D.probabilities[atom_margins <= theta].sum()
                )

    def test_a_size_mismatch_is_refused_as_for_a_voting_classifier(self):
        H = self.small()
        pair = HypothesisClass([[1, 1, 1], [-1, -1, -1]])
        f = VotingClassifier([0.5, 0.5])
        g = DiscretizedClassifier(pair, [0, 1, 1])
        S = sample(3, [(0, 1)])
        messages = []
        for voter in (f, g):
            for call in (lambda: voter.values_on(H), lambda: margins_on_sample(voter, H, S)):
                with pytest.raises(ValueError) as info:
                    call()
                messages.append(str(info.value))
        assert set(messages) == {"classifier has 2 weights but class has 3 hypotheses"}

    def test_rejects_bad_indices(self):
        H = self.small()
        with pytest.raises(ValueError, match="non-empty"):
            DiscretizedClassifier(H, [])
        with pytest.raises(ValueError, match="non-empty"):
            DiscretizedClassifier(H, [[0, 1]])
        with pytest.raises(ValueError, match="out of range"):
            DiscretizedClassifier(H, [0, 3])
        with pytest.raises(ValueError, match="out of range"):
            DiscretizedClassifier(H, [-1])

    @pytest.mark.parametrize(
        "indices", [[0.7, 1.9], [0.0, 2.0], ["0", "2"], [True, False]],
        ids=["fractional", "integral-floats", "strings", "bools"],
    )
    def test_indices_must_be_integers(self, indices):
        # 0.7 used to truncate to 0 and '2' to parse as 2
        with pytest.raises(ValueError, match="must be integers"):
            DiscretizedClassifier(self.small(), indices)


class TestSampleDiscretization:
    def two_constant_class(self):
        return HypothesisClass([[1], [-1]])

    def test_reproducible_from_seed(self):
        H = self.two_constant_class()
        f = VotingClassifier([0.6, 0.4])
        a = sample_discretization(f, H, 32, stream(5, 0))
        b = sample_discretization(f, H, 32, stream(5, 0))
        c = sample_discretization(f, H, 32, stream(5, 1))
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)
        # the N indices are row 0 of an (M, N) draw from the same generator
        assert np.array_equal(a.indices, discretize._draw_indices(f, (100, 32), stream(5, 0))[0])

    def test_point_mass_draws_one_hypothesis(self):
        H = self.two_constant_class()
        f = VotingClassifier([0.0, 1.0])
        g = sample_discretization(f, H, 16, stream(5, 2))
        assert np.all(g.indices == 1)

    def test_draw_frequencies_follow_the_weights(self):
        H = self.two_constant_class()
        f = VotingClassifier([0.9, 0.1])
        g = sample_discretization(f, H, 4000, stream(5, 3))
        freq = np.count_nonzero(g.indices == 0) / 4000
        assert abs(freq - 0.9) <= 4 * math.sqrt(0.9 * 0.1 / 4000)

    def test_sampled_margins_follow_the_binomial_law(self):
        # end-to-end: empirical Pr[y·g(x) > 0] matches the exact tail
        H = self.two_constant_class()
        p = 0.75
        f = VotingClassifier([p, 1.0 - p])
        lam = 2 * p - 1  # y·f(x0) with label +1
        S = sample(1, [(0, 1)])
        M, N = 2000, 8
        rng = stream(5, 4)
        hits = sum(
            float(margins_on_sample(sample_discretization(f, H, N, rng), H, S)[0]) > 0.0
            for _ in range(M)
        )
        lo, hi = binomial_ci(M, binom_margin_tail(N, lam, 0.0), _FIVE_SIGMA_LEVEL)
        assert lo <= hits <= hi

    def test_rejects_weight_class_size_mismatch(self):
        H = self.two_constant_class()
        with pytest.raises(ValueError, match="weights"):
            sample_discretization(VotingClassifier([1.0]), H, 8, stream(5, 5))


class TestMonotoneCheck:
    def test_first_decrease_locates_the_drop(self):
        assert first_decrease([0.1, 0.2, 0.15, 0.3]) == 2
        assert first_decrease([0.1, 0.2, 0.3]) is None
        assert first_decrease([0.2, 0.2 - 1e-16]) is None
        assert first_decrease([0.2, 0.2 - 1e-13]) == 1
        assert first_decrease([0.3, 0.1, 0.0]) == 1  # the first of two drops
        assert first_decrease([0.5]) is None and first_decrease([]) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), max_size=30))
    def test_first_decrease_agrees_with_a_pairwise_scan(self, values):
        drops = [k + 1 for k in range(len(values) - 1) if values[k + 1] < values[k] - 1e-14]
        found = first_decrease(values)
        assert found == (drops[0] if drops else None)
        assert found is None or type(found) is int

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
            margins, probs = margins_on_support(g, H, D)
            expected += weight * float(probs[margins <= half].sum())
        margins_f, probs = margins_on_support(f, H, D)
        via_law = float(probs @ (1.0 - binom_margin_tail_batch(N, margins_f, half)))
        assert abs(expected - via_law) <= 1e-12

    def test_takes_one_values_pass_per_voter(self, monkeypatch):
        f, H, D, S = random_instance(99)
        g = sample_discretization(f, H, 8, stream(99, 1))
        expected = decomposition_residual(f, g, H, D, S, 0.4, 0.3)
        calls = count_values_on(monkeypatch)
        assert decomposition_residual(f, g, H, D, S, 0.4, 0.3) == expected
        assert calls == {"VotingClassifier": 1, "DiscretizedClassifier": 1}

    def test_rejects_bad_thresholds_and_mismatched_domains(self):
        f, H, D, S = random_instance(97)
        g = sample_discretization(f, H, 8, stream(96, 0))
        with pytest.raises(ValueError, match="theta"):
            decomposition_residual(f, g, H, D, S, 0.0, 0.5)
        with pytest.raises(ValueError, match="theta_i"):
            decomposition_residual(f, g, H, D, S, 0.5, 1.5)
        other_g = DiscretizedClassifier(HypothesisClass([[1, 1], [-1, -1]]), [0, 1])
        with pytest.raises(ValueError, match="classifier has 2 weights but class has 4"):
            decomposition_residual(f, other_g, H, D, S, 0.5, 0.5)
        with pytest.raises(ValueError, match="domain"):
            decomposition_residual(f, g, H, D, sample(2, [(0, 1)]), 0.5, 0.5)


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

    def test_takes_one_values_pass(self, monkeypatch):
        f, H, D, _ = random_instance(95)
        expected = expected_half_margin_loss_bound_check(f, H, D, 0.5, 64)
        calls = count_values_on(monkeypatch)
        assert expected_half_margin_loss_bound_check(f, H, D, 0.5, 64) == expected
        assert calls == {"VotingClassifier": 1}
        assert expected[1] == true_margin_loss(f, H, D, 0.375) + math.exp(-64 * 0.25 / 128)

    def test_requires_enough_draws(self):
        f, H, D, _ = random_instance(94)
        with pytest.raises(PreconditionError, match="N"):
            expected_half_margin_loss_bound_check(f, H, D, 0.5, 16)

    def test_a_threshold_past_the_float_range_is_refused(self):
        f, H, D, _ = random_instance(94)
        with pytest.raises(PreconditionError, match="inf"):
            expected_half_margin_loss_bound_check(f, H, D, 1e-300, 5)

    def test_rejects_bad_theta_i(self):
        f, H, D, _ = random_instance(93)
        with pytest.raises(ValueError, match="theta_i"):
            expected_half_margin_loss_bound_check(f, H, D, 0.0, 64)
