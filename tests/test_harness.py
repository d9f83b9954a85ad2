"""Tests for the experiment harness and command line.

Covers INI config parsing (schemas, defaults, typed error messages),
report/CSV plumbing, the lemma-check dispatcher, the three experiment
runners (concentration, gap-vs-bounds, boosting demo), exit codes of
``experiment run``, and every CLI subcommand.  All artifacts go to
``tmp_path``; the output-directory environment variable is exercised via
``monkeypatch`` so no test touches the working directory.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votemargin import discretize, phirho
from votemargin.boosting import build_stump_class
from votemargin.bounds import (
    BoundInputs,
    admissible_theta_floor,
    breiman_report,
    choose_N_within_const,
    theorem1_report,
)
from votemargin.cli import main
from votemargin.core import PreconditionError
from votemargin.discretize import binom_margin_tail, binom_margin_tail_batch
from votemargin.harness import checks, experiments
from votemargin.harness.checks import (
    VALID_LEMMA_IDS,
    binomial_ci,
    repair_duplicate_constants,
    smallest_c_monotone,
    validate,
)
from votemargin.harness.config import (
    DEFAULT_SEED,
    EXPERIMENT_KINDS,
    ConfigError,
    parse_config,
    parse_config_text,
)
from votemargin.harness.experiments import (
    CONSTANTS_FILENAME,
    adaboost_experiment,
    concentration_experiment,
    gap_vs_bounds_experiment,
    half_margin_rhs,
    within_const_rhs,
)
from votemargin.harness.reporting import (
    OUTPUT_DIR_ENV,
    format_value,
    read_constants_csv,
    resolve_out_dir,
    write_constants_csv,
    write_csv,
    write_summary,
)

from traced import peak_bytes


def half_margin_text(out, **overrides):
    """A small, fast concentration config writing into ``out``."""
    params = {
        "seed": 5,
        "n": 60,
        "h_size": 4,
        "x_size": 8,
        "trials": 200,
        "probes": 20,
        "delta": 0.1,
        "theta": 0.35,
        "out": out,
    }
    params.update(overrides)
    kind = params.pop("kind", "half-margin")
    lines = [f"[{kind}]"] + [f"{key} = {val}" for key, val in params.items()]
    return "\n".join(lines) + "\n"


def gap_text(out, **overrides):
    """A small gap-vs-bounds config over two sample sizes."""
    params = {
        "seed": 3,
        "d": 1,
        "k": 3,
        "noise": 0.0,
        "t": 20,
        "n_grid": "100, 200",
        "theta_grid": "0.5",
        "trend_theta": 0.5,
        "delta": 0.1,
        "out": out,
    }
    params.update(overrides)
    lines = ["[gap-vs-bounds]"] + [f"{key} = {val}" for key, val in params.items()]
    return "\n".join(lines) + "\n"


def trend_failure_text(out):
    """A gap config whose trend check deterministically fails.

    With no label noise and a small trend margin, boosting reaches zero
    margin loss at every sample size, so the matched loss is 0 and the
    deviation ratio log(theta^2 n / ln|H|) / log(n) strictly increases
    with n -- the opposite of the required trend.
    """
    return gap_text(
        out, t=60, theta_grid="0.3, 0.5", trend_theta=0.3, n_grid="100, 200"
    )


def adaboost_text(out, **overrides):
    params = {
        "seed": 2,
        "d": 1,
        "k": 3,
        "n": 40,
        "t": 10,
        "bins": 4,
        "noise": 0.1,
        "out": out,
    }
    params.update(overrides)
    lines = ["[adaboost]"] + [f"{key} = {val}" for key, val in params.items()]
    return "\n".join(lines) + "\n"


def validate_text(out=None, trials=5, grid_points=201, seed=9):
    lines = ["[validate]", f"trials = {trials}", f"grid_points = {grid_points}", f"seed = {seed}"]
    if out is not None:
        lines.append(f"out = {out}")
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    def test_half_margin_defaults(self):
        config = parse_config_text("[half-margin]\nseed = 5\n")
        assert config.kind == "half-margin"
        assert config.params["seed"] == 5
        assert config.params["n"] == 200
        assert config.params["h_size"] == 8
        assert config.params["x_size"] == 32
        assert config.params["trials"] == 500
        assert config.params["delta"] == 0.1
        assert config.params["theta"] == 0.35
        assert config.params["probes"] == 100
        assert config.params["out"] is None

    def test_within_const_shares_schema(self):
        config = parse_config_text("[within-const]\nseed = 7\nn = 120\n")
        assert config.kind == "within-const"
        assert config.params["n"] == 120
        assert config.params["trials"] == 500

    def test_gap_defaults(self):
        config = parse_config_text("[gap-vs-bounds]\nseed = 11\n")
        assert config.params["d"] == 2
        assert config.params["k"] == 7
        assert config.params["noise"] == 0.0
        assert config.params["t"] == 400
        assert config.params["n_grid"] == (200, 800, 3200)
        assert config.params["theta_grid"] == (0.3, 0.45, 0.6, 0.75, 0.9)
        assert config.params["delta"] == 0.05
        assert config.params["c"] is None
        assert config.params["constants_csv"] is None
        assert config.params["trend_theta"] == 0.6

    def test_adaboost_defaults(self):
        config = parse_config_text("[adaboost]\nseed = 1\n")
        assert config.params["d"] == 2
        assert config.params["k"] == 7
        assert config.params["noise"] == 0.1
        assert config.params["n"] == 400
        assert config.params["t"] == 200
        assert config.params["bins"] == 20

    def test_validate_defaults_including_seed(self):
        config = parse_config_text("[validate]\n")
        assert config.params["seed"] == DEFAULT_SEED == 1729
        assert config.params["trials"] is None
        assert config.params["grid_points"] is None

    def test_grid_values_parse_to_tuples(self):
        config = parse_config_text(
            "[gap-vs-bounds]\nseed = 1\nn_grid = 100, 200\ntheta_grid = 0.4, 0.6\n"
        )
        assert config.params["n_grid"] == (100, 200)
        assert config.params["theta_grid"] == (0.4, 0.6)

    def test_out_key_is_kept_as_string(self, tmp_path):
        config = parse_config_text(f"[adaboost]\nseed = 1\nout = {tmp_path}\n")
        assert config.params["out"] == str(tmp_path)

    def test_missing_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="requires key 'seed'"):
            parse_config_text("[half-margin]\nn = 100\n")

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[half-margin]\nseed = 1\nzap = 3\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n = 501", r"n must be an integer in \[1, 500\], got 501"),
            ("n = abc", "n must be an integer"),
            ("trials = 100", r"trials must be an integer >= 200, got 100"),
            ("delta = 1.5", r"delta must lie in \(0\.0, 1\.0\)"),
            ("theta = 0", r"theta must lie in \(0\.0, 1\.0\]"),
        ],
    )
    def test_range_errors_name_parameter_and_range(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"[half-margin]\nseed = 1\n{line}\n")

    def test_noise_range_error(self):
        with pytest.raises(ConfigError, match=r"noise must lie in \[0\.0, 0\.5\)"):
            parse_config_text("[adaboost]\nseed = 1\nnoise = 0.5\n")

    def test_zero_sections_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_text("")

    def test_two_sections_rejected(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_text("[adaboost]\nseed = 1\n[validate]\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            parse_config_text("[mystery]\nseed = 1\n")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_kinds_listing_is_sorted(self):
        assert EXPERIMENT_KINDS == tuple(sorted(EXPERIMENT_KINDS))
        assert "gap-vs-bounds" in EXPERIMENT_KINDS


class TestReporting:
    def test_format_value_cases(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(7) == "7"
        assert format_value(None) == ""
        assert format_value("abc") == "abc"
        assert format_value(0.1) == "%.17g" % 0.1
        assert float(format_value(1.0 / 3.0)) == 1.0 / 3.0

    @pytest.mark.parametrize(
        "value, text",
        [
            (np.float64(0.1), "0.10000000000000001"),
            (np.float32(0.5), "0.5"),
            (np.int64(-3), "-3"),
            (np.uint8(200), "200"),
            (np.bool_(True), "true"),
            (np.str_("x"), "x"),
            (float("nan"), "nan"),
            (-0.0, "-0"),
            (2**70, "1180591620717411303424"),
        ],
    )
    def test_format_value_of_other_types(self, value, text):
        # the exact-type shortcuts leave every other value on the old path
        assert format_value(value) == text

    def test_write_csv_round_trip_with_lf_endings(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 0.5], [2, True]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines == ["a,b", "1,0.5", "2,true"]

    def test_write_summary(self, tmp_path):
        path = write_summary(tmp_path / "s.txt", ["one", "two"])
        assert path.read_text() == "one\ntwo\n"

    def test_resolve_out_dir_explicit_creates(self, tmp_path):
        target = tmp_path / "a" / "b"
        resolved = resolve_out_dir(target)
        assert resolved == target
        assert target.is_dir()

    def test_resolve_out_dir_env_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        assert resolve_out_dir(None) == target
        assert target.is_dir()

    def test_resolve_out_dir_defaults_to_cwd(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert resolve_out_dir(None) == Path(".")

    def test_constants_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        write_constants_csv(path, {"half-margin": 0.25, "within-const": 1.5})
        assert read_constants_csv(path) == {"half-margin": 0.25, "within-const": 1.5}

    def test_constants_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\nx,1\n")
        with pytest.raises(ValueError, match="header"):
            read_constants_csv(path)


class TestCheckHelpers:
    def test_repair_duplicate_constants_flips_surplus_rows(self):
        matrix = np.array(
            [[1, 1, 1], [1, 1, 1], [-1, -1, -1], [-1, -1, -1], [1, -1, 1]]
        )
        out = repair_duplicate_constants(matrix)
        assert out is matrix
        assert matrix[0].tolist() == [1, 1, 1]
        assert matrix[1].tolist() == [-1, 1, 1]
        assert matrix[2].tolist() == [-1, -1, -1]
        assert matrix[3].tolist() == [1, -1, -1]
        assert matrix[4].tolist() == [1, -1, 1]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 12), width=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_repair_matches_the_per_sign_scan(self, rows, width, seed):
        # narrow matrices, so constant rows repeat often
        matrix = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), (rows, width))
        expected = matrix.copy()
        for label in (1, -1):
            for r in np.flatnonzero((expected == label).all(axis=1))[1:]:
                expected[r, 0] = -label
        assert np.array_equal(repair_duplicate_constants(matrix), expected)

    def test_repair_leaves_single_constants_alone(self):
        matrix = np.array([[1, 1], [-1, -1], [1, -1]])
        before = matrix.copy()
        repair_duplicate_constants(matrix)
        assert np.array_equal(matrix, before)

    def test_smallest_c_monotone_inverts_identity(self):
        result = smallest_c_monotone(lambda c: c, 0.3)
        assert result == pytest.approx(0.3, abs=1e-9)
        assert result >= 0.3

    def test_smallest_c_monotone_handles_trivial_targets(self):
        assert smallest_c_monotone(lambda c: c, 0.0) == 0.0
        assert smallest_c_monotone(lambda c: c, -2.0) == 0.0

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_smallest_c_monotone_rejects_a_non_finite_target(self, target):
        # a NaN target used to return 1.0, a plausible constant
        with pytest.raises(ValueError, match="target"):
            smallest_c_monotone(lambda c: c, target)

    def test_smallest_c_monotone_rejects_unreachable_target(self):
        with pytest.raises(ValueError, match="no constant reaches"):
            smallest_c_monotone(lambda c: c / (1.0 + c), 2.0)

    @staticmethod
    def full_bisection(fn, target):
        """The calibration as it ran before it stopped early: 80 halvings always."""
        if target <= 0.0:
            return 0.0
        hi = 1.0
        while fn(hi) < target:
            hi *= 2.0
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if fn(mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize(
        "target",
        [5e-324, 1.5e-323, 1e-310, 2.2250738585072014e-308, 1e-30, 2.0**-80, 3e-25,
         0.3, 0.5, 1.0, 1.0 + 2.0**-52, 3.7, 1e10, 2.0**150],
    )
    def test_smallest_c_monotone_matches_the_full_bisection_on_identity(self, target):
        assert smallest_c_monotone(lambda c: c, target) == self.full_bisection(lambda c: c, target)

    def test_smallest_c_monotone_matches_the_full_bisection_on_the_bounds(self):
        rng = np.random.default_rng(31)
        rhs = half_margin_rhs(200, 8, 0.1, 0.5, 0.25, 64)
        params = phirho.PhiRhoParams(0.125, 256)
        for fn, scale in [(rhs, 0.05), (lambda c: phirho.lip_const_bound(params, c), 50.0)]:
            for target in rng.uniform(0.0, scale, 40):
                calls = []

                def counted(c):
                    calls.append(c)
                    return fn(c)

                assert smallest_c_monotone(counted, float(target)) == self.full_bisection(fn, float(target))
                # 81 evaluations before: the bracket's ends are adjacent doubles sooner
                assert len(calls) <= 70

    def test_random_hypothesis_class_is_read_only(self):
        H = checks.random_hypothesis_class(3, 5, 4)
        assert not H.matrix.flags.writeable

    def test_binomial_ci_pinned_interval(self):
        assert binomial_ci(500, 0.1, 0.95) == (37, 64)

    def test_binomial_ci_matches_scipy_stats_ppf(self):
        from scipy.stats import binom  # test-only oracle
        ns = list(range(1, 300)) + [500, 1000, 2000, 5000, 10_000, 20_000]
        ps = (
            [0.001, 0.005, 0.01, 0.02]
            + [round(x, 2) for x in np.arange(0.05, 1.0, 0.05)]
            + [0.98, 0.99, 0.995, 0.999, 1 / 3, 2 / 3, 0.0625, 0.9375]
            + [0.123, 0.4567, 0.5001, 0.7071, 0.31]
        )
        n_grid, p_grid = np.meshgrid(ns, ps, indexing="ij")
        lo_ref = binom.ppf(0.025, n_grid, p_grid)
        hi_ref = binom.ppf(0.975, n_grid, p_grid)
        for i, n in enumerate(ns):
            for j, p in enumerate(ps):
                assert binomial_ci(n, p, 0.95) == (lo_ref[i, j], hi_ref[i, j]), (n, p)

    def test_binomial_ci_brackets_the_mean(self):
        lo, hi = binomial_ci(500, 0.1, 0.95)
        assert lo <= 50 <= hi
        lo50, hi50 = binomial_ci(500, 0.1, level=0.5)
        assert lo <= lo50 and hi50 <= hi

    @pytest.mark.parametrize(
        "args, name",
        [
            ((100, math.nan, 0.95), "p"),
            ((100, 1.5, 0.95), "p"),
            ((100, -0.1, 0.95), "p"),
            ((100, 0.1, math.nan), "level"),
            ((100, 0.1, 1.5), "level"),
            ((math.nan, 0.1, 0.95), "trials"),
            ((-1, 0.1, 0.95), "trials"),
        ],
        ids=["p-nan", "p-1.5", "p--0.1", "level-nan", "level-1.5", "trials-nan", "trials--1"],
    )
    def test_binomial_ci_rejects_bad_arguments(self, args, name):
        with pytest.raises(ValueError, match=name):
            binomial_ci(*args)


class TestRhsHelpers:
    def test_half_margin_rhs_vanishes_at_nonpositive_c(self):
        rhs = half_margin_rhs(200, 8, 0.1, 0.5, 0.25, 64)
        assert rhs(0.0) == 0.0
        assert rhs(-1.0) == 0.0

    def test_half_margin_rhs_is_increasing(self):
        rhs = half_margin_rhs(200, 8, 0.1, 0.5, 0.25, 64)
        assert 0.0 < rhs(0.5) < rhs(1.0) < rhs(2.0)

    def test_half_margin_rhs_formula(self):
        n, h_size, delta, theta, loss_hi, big_n = 200, 8, 0.1, 0.5, 0.25, 64
        rhs = half_margin_rhs(n, h_size, delta, theta, loss_hi, big_n)
        log_term = (big_n * math.log(h_size) + math.log(1.0 / delta)) / n
        for c in (0.5, 1.0, 3.0):
            expected = c * (
                math.sqrt((loss_hi + math.exp(-big_n * theta**2 / c)) * log_term)
                + log_term
            )
            assert rhs(c) == pytest.approx(expected, rel=1e-14)

    def test_within_const_rhs_formula_and_linearity(self):
        n, h_size, theta, delta = 5000, 16, 0.5, 0.05
        log_h = math.log(h_size)
        expected = math.log(theta**2 * n / log_h) * log_h / (theta**2 * n)
        expected += math.log(math.e / delta) / n
        assert within_const_rhs(n, h_size, theta, delta, 1.0) == pytest.approx(
            expected, rel=1e-14
        )
        one = within_const_rhs(n, h_size, theta, delta, 1.0)
        assert within_const_rhs(n, h_size, theta, delta, 2.0) == pytest.approx(
            2.0 * one, rel=1e-15
        )

    def test_within_const_rhs_matches_deviation_bound_at_zero_loss(self):
        n, h_size, theta, delta, c = 5000, 16, 0.5, 0.05, 0.7
        inputs = BoundInputs(n=n, H_size=h_size, theta=theta, delta=delta, loss=0.0, c=c)
        assert within_const_rhs(n, h_size, theta, delta, c) == pytest.approx(
            theorem1_report(inputs).deviation, rel=1e-12
        )

    def test_within_const_rhs_requires_wide_enough_cell(self):
        with pytest.raises(PreconditionError, match="must exceed"):
            within_const_rhs(10, 16, 0.35, 0.1, 1.0)

    def test_a_narrow_cell_fails_alike_in_both_size_rules(self):
        # θ_next²·n/ln|H| = 0.01·10/ln 8 ≈ 0.048 is not above 1
        with pytest.raises(PreconditionError, match="must exceed 1") as rule:
            choose_N_within_const(0.1, 10, 8)
        with pytest.raises(PreconditionError) as rhs:
            within_const_rhs(10, 8, 0.1, 0.1, 1.0)
        assert str(rhs.value) == str(rule.value)

    def test_within_const_rhs_refuses_a_size_term_no_float_holds(self):
        # θ_next²·n/ln|H| overflows to inf, and the value would be NaN
        with pytest.raises(ValueError, match="too large for a float"):
            within_const_rhs(10**308, 2, 2.0, 0.5, 1.0)


class TestValidateDispatch:
    def test_valid_ids_catalogue(self):
        assert len(VALID_LEMMA_IDS) == 11
        assert "margin-law" in VALID_LEMMA_IDS
        assert "half-margin-expectation" in VALID_LEMMA_IDS

    def test_unknown_lemma_id_rejected(self):
        with pytest.raises(ValueError, match="unknown lemma id"):
            validate("nope", parse_config_text("[validate]\n"))

    @pytest.mark.parametrize(
        "lemma_id", ["decomposition", "massart", "monotonicity", "phi-rho-ineq"]
    )
    def test_small_config_runs_pass(self, lemma_id, tmp_path):
        config = parse_config_text(validate_text(out=tmp_path))
        report = validate(lemma_id, config)
        assert report.lemma == lemma_id
        assert report.passed
        slug = lemma_id.replace("-", "_")
        assert (tmp_path / f"validate_{slug}.csv").is_file()
        assert (tmp_path / f"validate_{slug}.txt").is_file()

    def test_margin_law_judges_hits_against_the_exact_interval(self, tmp_path, monkeypatch):
        config = parse_config_text(f"[validate]\nseed = 28\nout = {tmp_path}\n")
        assert validate("margin-law", config).passed
        lines = (tmp_path / "validate_margin_law.csv").read_text().splitlines()
        assert lines[0] == "N,lambda,eta,exact_tail,mc_tail,hits,ci_lo,ci_hi,ok"
        assert len(lines) == 61 and lines[-1].startswith("1024,")
        # a defect: the tail of N + 1 draws stands in for the tail of N
        monkeypatch.setattr(
            checks, "binom_margin_tail", lambda N, lam, eta: binom_margin_tail(N + 1, lam, eta)
        )
        report = validate("margin-law", config)
        assert not report.passed and report.max_violation > 0

    def test_margin_law_draws_through_the_sampler_in_blocks(self, tmp_path, monkeypatch):
        config = parse_config_text(f"[validate]\nseed = 3\ntrials = 2000\nout = {tmp_path}\n")
        assert validate("margin-law", config).passed
        blocked = (tmp_path / "validate_margin_law.csv").read_bytes()  # 1024 + 976 rows
        monkeypatch.setattr(checks, "_MC_BLOCK_ROWS", 2000)
        validate("margin-law", config)
        assert (tmp_path / "validate_margin_law.csv").read_bytes() == blocked
        # a defect in the draw the suite shares with sample_discretization
        for module in (discretize, checks):
            monkeypatch.setattr(module, "_draw_indices", lambda f, shape, rng: rng.choice(
                len(f), size=shape, p=f.weights[::-1]))
        report = validate("margin-law", config)
        assert not report.passed and report.max_violation > 0

    def test_phi_rho_ineq_evaluates_one_tail_per_grid_point(self, tmp_path, monkeypatch):
        sizes = []

        def counting_batch(N, lams, eta):
            sizes.append(np.size(lams))
            return binom_margin_tail_batch(N, lams, eta)

        monkeypatch.setattr(phirho, "binom_margin_tail_batch", counting_batch)
        config = parse_config_text(f"[validate]\nseed = 1\ntrials = 5\nout = {tmp_path}\n")
        assert validate("phi-rho-ineq", config).passed
        assert sizes == [2001] * 5

    @pytest.mark.parametrize("region, at", [("outer-phi", -0.35), ("outer-rho", 0.705)])
    def test_lipschitz_fails_on_a_jump_in_the_tail(self, tmp_path, monkeypatch, region, at):
        config = parse_config_text(f"[validate]\nout = {tmp_path}\n")
        assert validate("lipschitz", config).passed
        # a defect: the batch tail steps up by 1e-3 past λ = at, inside the region
        tail_many = phirho.PhiRhoParams.tail_many
        monkeypatch.setattr(
            phirho.PhiRhoParams, "tail_many",
            lambda params, lams: tail_many(params, lams) + 1e-3 * (np.asarray(lams) > at),
        )
        report = validate("lipschitz", config)
        assert not report.passed and report.max_violation > 0
        rows = (tmp_path / "validate_lipschitz.csv").read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows if row.endswith(",false")} == {region}

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config_text(validate_text(out=tmp_path))
        validate("decomposition", config)
        first = (tmp_path / "validate_decomposition.csv").read_bytes()
        validate("decomposition", config)
        second = (tmp_path / "validate_decomposition.csv").read_bytes()
        assert first == second

    def test_report_lines_layout(self, tmp_path):
        config = parse_config_text(validate_text(out=tmp_path))
        lines = list(validate("monotonicity", config).lines())
        assert lines[0] == "lemma: monotonicity"
        assert lines[1] == "verdict: pass"
        assert any(line.startswith("max violation:") for line in lines)
        assert any(line.startswith("tolerance:") for line in lines)
        assert any(line.startswith("rows:") for line in lines)

    def test_env_variable_receives_artifacts(self, tmp_path, monkeypatch):
        target = tmp_path / "via-env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        config = parse_config_text(validate_text())
        validate("massart", config)
        assert (target / "validate_massart.csv").is_file()


class TestConcentrationExperiment:
    def test_half_margin_small_run(self, tmp_path):
        config = parse_config_text(half_margin_text(tmp_path))
        report = concentration_experiment(config)
        assert report.kind == "half-margin"
        assert report.trials == 200
        assert report.theta_next == pytest.approx(2.0 * report.theta_lo, rel=1e-12)
        assert report.N >= 1
        summary = (tmp_path / "half_margin_summary.txt").read_text().splitlines()
        assert f"discretization sizes N: {report.N}" in summary
        assert report.calibrated_c > 0.0
        assert 0 <= report.failure_count <= report.trials
        assert report.passed == (report.ci_lo <= report.failure_count <= report.ci_hi)
        assert (tmp_path / "half_margin_trials.csv").is_file()
        assert (tmp_path / "half_margin_summary.txt").is_file()
        constants = read_constants_csv(tmp_path / CONSTANTS_FILENAME)
        assert constants["half-margin"] == report.calibrated_c

    def test_within_const_small_run(self, tmp_path):
        config = parse_config_text(half_margin_text(tmp_path, kind="within-const"))
        report = concentration_experiment(config)
        assert report.kind == "within-const"
        assert report.calibrated_c > 0.0
        assert (tmp_path / "within_const_trials.csv").is_file()
        constants = read_constants_csv(tmp_path / CONSTANTS_FILENAME)
        assert constants["within-const"] == report.calibrated_c

    def test_constants_file_merges_both_kinds(self, tmp_path):
        concentration_experiment(parse_config_text(half_margin_text(tmp_path)))
        concentration_experiment(
            parse_config_text(half_margin_text(tmp_path, kind="within-const"))
        )
        constants = read_constants_csv(tmp_path / CONSTANTS_FILENAME)
        assert set(constants) == {"half-margin", "within-const"}

    def test_rerun_is_byte_identical(self, tmp_path):
        config = parse_config_text(half_margin_text(tmp_path))
        concentration_experiment(config)
        first = (tmp_path / "half_margin_trials.csv").read_bytes()
        concentration_experiment(config)
        second = (tmp_path / "half_margin_trials.csv").read_bytes()
        assert first == second

    def test_trials_csv_header(self, tmp_path):
        config = parse_config_text(half_margin_text(tmp_path))
        concentration_experiment(config)
        header = (tmp_path / "half_margin_trials.csv").read_text().splitlines()[0]
        assert header == "trial,sup_statistic,smallest_c"

    def test_report_lines_mention_verdict(self, tmp_path):
        config = parse_config_text(half_margin_text(tmp_path))
        report = concentration_experiment(config)
        assert any(line.startswith("verdict:") for line in report.lines())

    def test_wrong_kind_rejected(self, tmp_path):
        config = parse_config_text(adaboost_text(tmp_path))
        with pytest.raises(ValueError, match="kind"):
            concentration_experiment(config)


class TestGapVsBoundsExperiment:
    def test_small_run_structure(self, tmp_path):
        report = gap_vs_bounds_experiment(parse_config_text(gap_text(tmp_path)))
        assert report.c_used == 1.0
        assert report.c_source == "default"
        assert len(report.trend_ratios) == 2
        assert report.matched_loss >= 0.0
        assert report.passed == (report.trend_ok and report.gap_ok)
        rows = (tmp_path / "gap_vs_bounds.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # header + (2 sizes) x (1 theta)
        assert (tmp_path / "gap_vs_bounds_summary.txt").is_file()

    def test_explicit_constant_wins(self, tmp_path):
        report = gap_vs_bounds_experiment(parse_config_text(gap_text(tmp_path, c=0.05)))
        assert report.c_used == 0.05
        assert report.c_source == "explicit config value"

    def test_constants_csv_supplies_max(self, tmp_path):
        path = tmp_path / "cal.csv"
        write_constants_csv(path, {"half-margin": 0.2, "within-const": 0.6})
        report = gap_vs_bounds_experiment(
            parse_config_text(gap_text(tmp_path, constants_csv=path))
        )
        assert report.c_used == 0.6
        assert str(path) in report.c_source

    def test_empty_constants_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_constants_csv(path, {})
        with pytest.raises(ValueError, match="holds no constants"):
            gap_vs_bounds_experiment(
                parse_config_text(gap_text(tmp_path, constants_csv=path))
            )

    def test_requires_two_admissible_sizes(self, tmp_path):
        config = parse_config_text(gap_text(tmp_path, trend_theta=0.2))
        with pytest.raises(PreconditionError, match="fewer than two"):
            gap_vs_bounds_experiment(config)

    def test_zero_matched_loss_reverses_trend(self, tmp_path):
        """Separable data drives the margin loss to zero at every size, and
        the resulting deviation ratio increases with n, failing the trend."""
        report = gap_vs_bounds_experiment(
            parse_config_text(trend_failure_text(tmp_path))
        )
        assert report.matched_loss == 0.0
        assert report.trend_ratios[0] < report.trend_ratios[1]
        assert not report.trend_ok
        assert report.gap_ok
        assert not report.passed

    def test_bound_cells_follow_the_applicable_bounds(self, tmp_path):
        """A skipped row (θ at or below the admissible floor) has empty bound
        cells; the breiman cell holds breiman_report's value at zero loss and
        is empty otherwise."""
        H_size = len(build_stump_class(1, 3))
        bound_cells = ("thm1", "gz13", "sfbl98", "breiman", "lower_bound",
                       "thm1_deviation", "gz13_deviation", "lower_warnings")
        seen = set()
        for noise in (0.0, 0.1):  # separable rows have zero loss, noisy ones not
            out = tmp_path / f"noise-{noise}"
            gap_vs_bounds_experiment(
                parse_config_text(gap_text(out, noise=noise, theta_grid="0.2, 0.5, 0.9"))
            )
            with open(out / "gap_vs_bounds.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                n, theta, loss = int(row["n"]), float(row["theta"]), float(row["loss"])
                if row["skipped"] == "true":
                    seen.add("skipped")
                    assert theta <= admissible_theta_floor(n, H_size)
                    assert [row[k] for k in bound_cells] == [""] * len(bound_cells)
                    continue
                assert row["skipped"] == "false" and row["thm1"] != ""
                if loss == 0.0:
                    seen.add("zero loss")
                    inputs = BoundInputs(
                        n=n, H_size=H_size, theta=theta, delta=0.1, loss=0.0, c=1.0
                    )
                    assert row["breiman"] == format_value(breiman_report(inputs).value)
                else:
                    seen.add("positive loss")
                    assert row["breiman"] == ""
        assert seen == {"skipped", "zero loss", "positive loss"}

    def test_wrong_kind_rejected(self, tmp_path):
        config = parse_config_text(adaboost_text(tmp_path))
        with pytest.raises(ValueError, match="kind"):
            gap_vs_bounds_experiment(config)


class TestAdaboostExperiment:
    def test_small_run(self, tmp_path):
        report = adaboost_experiment(parse_config_text(adaboost_text(tmp_path)))
        assert report.H_size == 2 * 1 * 3 + 2
        assert report.rounds_completed <= report.rounds_requested == 10
        assert 0.0 <= report.final_train_error <= 1.0
        assert report.passed is True
        rounds = (tmp_path / "adaboost_rounds.csv").read_text().splitlines()
        assert len(rounds) == 1 + report.rounds_completed
        margins = (tmp_path / "adaboost_margins.csv").read_text().splitlines()
        assert len(margins) == 1 + 4  # header + one row per histogram bin

    def test_wrong_kind_rejected(self, tmp_path):
        config = parse_config_text(gap_text(tmp_path))
        with pytest.raises(ValueError, match="kind"):
            adaboost_experiment(config)

    def test_the_benchmark_run_stays_within_one_class_matrix_and_its_task(self, tmp_path):
        # the (4, 15) class matrix (8.0 MB), the task, and the agreement rows
        # (2.4 MB at n = 20 000); the parent peaked at 17.0 MB
        config = parse_config_text(adaboost_text(tmp_path, seed=1, d=4, k=15, n=20000, t=400, bins=20))
        assert peak_bytes(lambda: adaboost_experiment(config)) < 13 * 10**6

    def test_csvs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The weighted errors and the voter values are sums in a fixed order
        # with no BLAS call, so one and two BLAS threads write the same bytes.
        # At this size and seed, the errors as a BLAS matrix-vector product
        # change bits at round 11 between one and two threads.
        script = "import sys, votemargin.cli; sys.exit(votemargin.cli.main(sys.argv[1:]))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            config = tmp_path / f"threads-{threads}.ini"
            config.write_text(adaboost_text(out, seed=2, d=4, k=15, n=20000, t=12, bins=20))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            result = subprocess.run(
                [sys.executable, "-c", script, "experiment", "run", str(config)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            written.append(
                [(out / name).read_bytes() for name in ("adaboost_rounds.csv", "adaboost_margins.csv")]
            )
        assert written[0] == written[1]


def run(path) -> int:
    """Exit status of ``votemargin experiment run <path>``."""
    return main(["experiment", "run", str(path)])


class TestRunExitCodes:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_passing_experiment_exits_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, "a.ini", adaboost_text(tmp_path))
        assert run(path) == 0
        out = capsys.readouterr().out
        assert "experiment: adaboost" in out
        assert "rounds:" in out

    def test_failed_assertion_exits_one(self, tmp_path):
        path = self.write(tmp_path, "g.ini", trend_failure_text(tmp_path))
        assert run(path) == 1

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = self.write(tmp_path, "bad.ini", "[half-margin]\nseed = 1\nzap = 2\n")
        assert run(path) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("d, k", [(8, 15), (64, 1)])
    def test_a_stump_class_over_the_entry_limit_exits_two(self, tmp_path, capsys, d, k):
        path = self.write(tmp_path, "big.ini", adaboost_text(tmp_path / "out", d=d, k=k))
        assert run(path) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: a stump class is limited to STUMP_CLASS_LIMIT")
        assert err.count("\n") == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert run(tmp_path / "nope.ini") == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        ["out-is-a-file", "out-below-a-file", "constants-missing",
         "constants-is-a-directory", "grid-out-is-a-directory"],
    )
    def test_unusable_path_exits_two(self, tmp_path, capsys, case):
        blocker = self.write(tmp_path, "blocker.txt", "not a directory\n")
        if case.startswith("out-"):
            out = blocker if case == "out-is-a-file" else blocker / "sub"
            config = self.write(tmp_path, "v.ini", validate_text(out=out))
            argv = ["validate", "massart", "--config", str(config)]
        elif case.startswith("constants-"):
            constants = tmp_path / "missing.csv" if case == "constants-missing" else tmp_path
            config = self.write(tmp_path, "g.ini", gap_text(tmp_path, constants_csv=constants))
            argv = ["experiment", "run", str(config)]
        else:
            argv = ["bounds", "grid", "--sweep", "n", "--values", "100", "--h-size", "16",
                    "--theta", "0.3", "--delta", "0.05", "--loss", "0.1", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["validate", "half-margin", "gap-vs-bounds", "adaboost"])
    def test_unusable_out_fails_before_the_work(self, tmp_path, monkeypatch, capsys, kind):
        def never(*args, **kwargs):
            raise AssertionError("the work ran before the output directory was resolved")

        blocker = self.write(tmp_path, "blocker.txt", "not a directory\n")
        if kind == "validate":
            monkeypatch.setitem(checks._SUITES, "lipschitz", never)
            config = self.write(tmp_path, "v.ini", validate_text(out=blocker))
            argv = ["validate", "lipschitz", "--config", str(config)]
        else:
            monkeypatch.setattr(experiments, "_ConcentrationInstance", never)
            monkeypatch.setattr(experiments, "build_stump_class", never)
            text = {"half-margin": half_margin_text, "gap-vs-bounds": gap_text,
                    "adaboost": adaboost_text}[kind](blocker)
            argv = ["experiment", "run", str(self.write(tmp_path, "e.ini", text))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_validate_section_is_redirected(self, tmp_path, capsys):
        path = self.write(tmp_path, "v.ini", validate_text(out=tmp_path))
        assert run(path) == 2
        assert capsys.readouterr().err == (
            "error: [validate] configs drive the validate command, not experiment run\n"
        )


HUGE = "1" + "0" * 400  # an integer that no float can hold


class TestCommandLine:
    def test_bounds_eval_table(self, capsys):
        code = main(
            ["bounds", "eval", "--n", "5000", "--h-size", "16", "--theta", "0.3",
             "--delta", "0.05", "--loss", "0.12"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].split()[:2] == ["bound", "value"]
        assert "sfbl98" in out and "theorem1" in out
        assert "(inapplicable: loss = 0.12" in out
        assert "(skipped: no --tau given)" in out

    def test_bounds_eval_warnings_are_indented(self, capsys):
        code = main(
            ["bounds", "eval", "--n", "40", "--h-size", "16", "--theta", "0.3",
             "--delta", "0.05", "--loss", "0.12", "--tau", "0.01", "--c", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        warnings = [line for line in out.splitlines() if "warning:" in line]
        assert len(warnings) == 2
        assert all(line.startswith(" ") for line in warnings)

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_bounds_eval_rejects_non_finite_constant(self, c, capsys):
        code = main(
            ["bounds", "eval", "--n", "1000", "--h-size", "100", "--theta", "0.1",
             "--delta", "0.05", "--loss", "0.1", f"--c={c}"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: c must lie in [0, inf), got {c}\n"

    def test_bounds_eval_does_not_import_scipy(self):
        # The closed-form bounds need no binomial tail, so a cold CLI run
        # must not pay for scipy; the first tail then imports it on demand.
        # k* is integer arithmetic, so neither fractions nor decimal loads.
        script = (
            "import sys\n"
            "import votemargin.cli\n"
            "code = votemargin.cli.main(['bounds', 'eval', '--n', '1000', '--h-size', '100',"
            " '--theta', '0.2', '--delta', '0.05', '--loss', '0.1'])\n"
            "print('exit', code, *(m in sys.modules for m in ('scipy', 'fractions', 'decimal')))\n"
            "from votemargin.discretize import binom_margin_tail_batch\n"
            "print('tail', repr(float(binom_margin_tail_batch(8, [0.0], 0.0)[0])),"
            " 'scipy.special' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert "exit 0 False False False" in lines
        usual = float(binom_margin_tail_batch(8, [0.0], 0.0)[0])
        assert f"tail {usual!r} True" in lines

    def test_the_cli_starts_without_numpy(self, tmp_path):
        # Importing the CLI, parsing a config of every kind, the closed-form
        # bounds, help and a refused input all run on the standard library;
        # numpy loads when a command first computes with arrays.
        paths = []
        for kind in EXPERIMENT_KINDS:
            path = tmp_path / f"{kind}.ini"
            path.write_text(f"[{kind}]\nseed = 3\nout = {tmp_path / 'out'}\n")
            paths.append(str(path))
        script = (
            "import contextlib, io, sys\n"
            "import votemargin.cli\n"
            "from votemargin.harness.config import parse_config\n"
            "def run(*argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()),"
            " contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            return votemargin.cli.main(list(argv))\n"
            "        except SystemExit as exc:\n"
            "            return exc.code\n"
            "kinds = [parse_config(path).kind for path in sys.argv[2:]]\n"
            "bounds = ['--n', '1000', '--h-size', '100', '--theta', '0.2', '--delta', '0.05',"
            " '--loss', '0.1']\n"
            "codes = [run('bounds', 'eval', *bounds),"
            " run('bounds', 'grid', *bounds, '--sweep', 'n', '--values', '100,200'),"
            " run('--help'), run('validate', 'no-such-lemma')]\n"
            "print('cold', *kinds, *codes, *(m in sys.modules for m in ('numpy', 'scipy')))\n"
            "code = run('validate', 'delta-allocation', '--config', sys.argv[1])\n"
            "print('warm', code, 'numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        validate_config = str(tmp_path / "validate.ini")
        result = subprocess.run(
            [sys.executable, "-c", script, validate_config, *paths], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            f"cold {' '.join(EXPERIMENT_KINDS)} 0 0 0 2 False False",
            "warm 0 True",
        ]
        assert (tmp_path / "out" / "validate_delta_allocation.csv").is_file()

    def test_bounds_eval_rejects_bad_values(self, capsys):
        code = main(
            ["bounds", "eval", "--n", "5000", "--h-size", "16", "--theta", "1.5",
             "--delta", "0.05", "--loss", "0.12"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", HUGE, "--h-size", "100", "--theta", "0.5", "--delta", "0.1",
             "--loss", "0.1"],
            ["eval", "--n", "1000", "--h-size", HUGE, "--theta", "0.5", "--delta", "0.1",
             "--loss", "0.1", "--tau", "0.2"],
            ["grid", "--sweep", "n", "--values", HUGE, "--h-size", "100", "--theta", "0.5",
             "--delta", "0.1", "--loss", "0.1"],
            ["grid", "--sweep", "h-size", "--values", f"16,{HUGE}", "--n", "1000",
             "--theta", "0.5", "--delta", "0.1", "--loss", "0.1"],
            # n fits a float, but theta^2*n/ln|H| in the log term does not
            ["eval", "--n", "15" + "0" * 307, "--h-size", "2", "--theta", "1",
             "--delta", "0.5", "--loss", "0.1", "--tau", "0.6"],
        ],
        ids=["eval-n", "eval-h-size", "grid-n", "grid-h-size", "eval-log-term"],
    )
    def test_bounds_reject_an_integer_too_large_for_a_float(self, argv, capsys):
        code = main(["bounds", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("theta", ["1e-170", "1e-160"])
    def test_bounds_eval_rejects_a_margin_too_small_for_the_formulas(self, theta, capsys):
        # theta^2 underflows, or the rate ln|H|/(theta^2*n) overflows
        code = main(
            ["bounds", "eval", "--n", "1", "--h-size", "2", "--theta", theta,
             "--delta", "0.5", "--loss", "0.1", "--tau", "0.5"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "n, h_size, theta, ratio",
        [("10", "16", "0.3", "0.324606"), ("1", "2", "3e-154", "1.29843e-307")],
        ids=["n-10", "3e-154"],
    )
    def test_gkl20_is_inapplicable_at_a_size_ratio_not_above_1(
        self, n, h_size, theta, ratio, capsys
    ):
        # below 1 the lower bound's log term is negative (or -inf in floats)
        fixed = ["--h-size", h_size, "--theta", theta, "--delta", "0.5", "--loss", "0.12",
                 "--tau", "0.5"]
        assert main(["bounds", "eval", "--n", n, *fixed]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("gkl20-lower"))
        assert row == (f"gkl20-lower  (inapplicable: theta = {theta} is too small: "
                       f"theta^2*n/ln|H| = {ratio} must exceed 1)")
        assert main(["bounds", "grid", "--sweep", "n", "--values", n, *fixed]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split(",")[-4] == "gkl20_lower" and row.split(",")[-4:] == ["", "", "", ""]

    def test_bounds_grid_stdout(self, capsys):
        code = main(
            ["bounds", "grid", "--sweep", "n", "--values", "100,200", "--h-size",
             "16", "--theta", "0.3", "--delta", "0.05", "--loss", "0.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("n,sfbl98,")
        assert lines[1].endswith(",,,,")  # lower-bound cells empty without --tau

    def test_bounds_grid_writes_file(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        code = main(
            ["bounds", "grid", "--sweep", "theta", "--values", "0.3,0.5", "--n",
             "5000", "--h-size", "16", "--delta", "0.05", "--loss", "0.1",
             "--tau", "0.2", "--out", str(target)]
        )
        assert code == 0
        assert f"wrote 2 rows to {target}" in capsys.readouterr().out
        lines = target.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("theta,")

    def test_bounds_grid_stdout_and_file_hold_the_same_bytes(self, tmp_path, capsys):
        # θ = 0.03 is below the floor, so theorem1's cells are empty; so are
        # breiman's at loss 0.12
        argv = ["bounds", "grid", "--sweep", "theta", "--values", "0.03,0.3,0.5",
                "--n", "5000", "--h-size", "16", "--delta", "0.05", "--loss", "0.12",
                "--tau", "0.2"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "grid.csv"
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_bytes() == stdout.encode()
        assert stdout.splitlines()[1].startswith("0.029999999999999999,")

    def test_bounds_grid_requires_fixed_parameters(self, capsys):
        code = main(
            ["bounds", "grid", "--sweep", "n", "--values", "100,200", "--theta",
             "0.3", "--delta", "0.05"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "missing fixed parameters" in err
        assert "--h-size" in err and "--loss" in err

    def test_bounds_grid_sweeps_tau(self, capsys):
        code = main(
            ["bounds", "grid", "--sweep", "tau", "--values", "0.1,0.2", "--n",
             "5000", "--h-size", "16", "--theta", "0.3", "--delta", "0.05",
             "--loss", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("tau,")

    def test_validate_unknown_id(self, capsys):
        code = main(["validate", "bogus"])
        assert code == 2
        assert "unknown lemma id" in capsys.readouterr().err

    def test_validate_rejects_other_sections(self, tmp_path, capsys):
        config = tmp_path / "a.ini"
        config.write_text(adaboost_text(tmp_path))
        code = main(["validate", "massart", "--config", str(config)])
        assert code == 2
        assert "[validate] config section" in capsys.readouterr().err

    def test_validate_without_config_runs_the_validate_defaults(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "cli"))
        assert main(["validate", "decomposition"]) == 0
        assert "verdict: pass" in capsys.readouterr().out
        config = parse_config_text(f"[validate]\nseed = 1729\nout = {tmp_path / 'api'}\n")
        validate("decomposition", config)
        rows = [tmp_path / d / "validate_decomposition.csv" for d in ("cli", "api")]
        assert rows[0].read_bytes() == rows[1].read_bytes()

    def test_validate_env_output_dir(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "cli-env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        config = tmp_path / "v.ini"
        config.write_text(validate_text())
        assert main(["validate", "massart", "--config", str(config)]) == 0
        assert (target / "validate_massart.csv").is_file()

    def test_experiment_run_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "a.ini"
        good.write_text(adaboost_text(tmp_path))
        assert main(["experiment", "run", str(good)]) == 0
        capsys.readouterr()
        failing = tmp_path / "g.ini"
        failing.write_text(trend_failure_text(tmp_path))
        assert main(["experiment", "run", str(failing)]) == 1
        capsys.readouterr()
        assert main(["experiment", "run", str(tmp_path / "nope.ini")]) == 2
        assert "not found" in capsys.readouterr().err
