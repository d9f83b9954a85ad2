"""Every public numeric entry point rejects a bad argument with ValueError.

Each case is a valid call plus, per argument, the values that argument must
refuse: for a real, NaN, ±inf, a finite float outside its range, or a value
that is not a real number at all (a bool, the string "0.5", a complex); for
an array of reals (margins, weights, probabilities), one such float among
valid entries, or a bool, str or complex array; for a count (a size, a
number of trials, rounds, bins or points) any float or bool, any integer
outside its range, and one no float can hold; for a sample position or a
hypothesis index a float, bool or string or an integer out of range; for
a hypothesis value or a label anything but +1 and -1; for a λ grid no
points at all; and for a random seed None, which would draw unseeded.
Hypothesis swaps one argument of the valid call for such a value.  Every
entry point that takes a discretization size N refuses one above 2**53.
The CLI cases do the same to ``bounds eval`` and ``bounds grid``, which
must exit 2 with one ``error:`` line, and a config with a negative seed
fails to parse.  A last test checks that every ``__all__`` entry of every
module resolves, so a deletion cannot leave a stale export behind.
"""

import contextlib
import importlib
import io
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votemargin
from votemargin.boosting import (
    adaboost,
    build_stump_class,
    generate_synthetic,
    margin_histogram,
)
from votemargin.bounds import (
    BoundInputs,
    build_partition,
    choose_N_main,
    choose_N_within_const,
    delta_allocation,
    gkl20_lower_report,
)
from votemargin.cli import main
from votemargin.core import (
    C_THETA,
    DataDistribution,
    HypothesisClass,
    LabeledSample,
    VotingClassifier,
    empirical_margin_loss,
    true_margin_loss,
)
from votemargin.discretize import (
    DiscretizedClassifier,
    binom_margin_tail,
    binom_margin_tail_batch,
    decomposition_residual,
    expected_half_margin_loss_bound_check,
    k_star,
    margin_law_monotone_check,
    sample_discretization,
)
from votemargin.harness.checks import (
    binomial_ci,
    random_distribution,
    random_hypothesis_class,
    random_voting,
    smallest_c_monotone,
)
from votemargin.harness.config import EXPERIMENT_KINDS, ConfigError, parse_config_text
from votemargin.harness.experiments import half_margin_rhs, within_const_rhs
from votemargin.phirho import (
    PhiRhoParams,
    diff_replacement_check,
    lip_const_bound,
    lipschitz_slope_check,
    phi,
    phi_bound_check,
    phi_many,
    rho,
    rho_many,
)
from votemargin.rademacher import (
    convexity_collapse_check,
    empirical_rademacher,
    massart_bound,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
ANY_FLOAT = st.floats()
#: Values no real argument accepts, whatever its range.
NOT_A_REAL = st.sampled_from([True, False, "0.5", 0.5 + 0j])
#: Arrays no array-of-reals argument accepts, whatever its range.
NOT_REAL_ARRAYS = st.sampled_from(
    [np.array([True, False]), np.array(["0.1", "0.5"]), np.array([0.1 + 0j, 0.5])]
)


def below(lo, *, lo_in=True):
    """NaN, ±inf, or a float below ``lo`` (``lo`` itself too unless ``lo_in``).

    The comparison is a filter, not ``exclude_max``, so that −0.0 counts as
    equal to 0.0, as the range checks under test see it.
    """
    floats = st.floats(max_value=lo, allow_nan=False)
    return NON_FINITE | floats.filter(lambda x: x < lo or not lo_in)


def outside(lo, hi, *, lo_in=True, hi_in=True):
    """NaN, ±inf, or a float outside the interval from lo to hi.

    ``lo_in`` and ``hi_in`` say whether the interval holds its endpoints.
    """
    above = st.floats(min_value=hi, allow_nan=False).filter(lambda x: x > hi or not hi_in)
    return below(lo, lo_in=lo_in) | above


def real(bad_floats):
    """The bad floats of a real argument, or a value that is not a real."""
    return bad_floats | NOT_A_REAL


def reals(bad_floats):
    """Two-entry arrays whose second entry is a bad float, or arrays not of reals."""
    return bad_floats.map(lambda x: [0.1, x]) | NOT_REAL_ARRAYS


def grid(bad_floats):
    """A grid with one bad float, an array not of reals, or an empty grid."""
    return reals(bad_floats) | st.just([])


def not_a_count(lo, hi=None):
    """Any float or bool, an integer outside [lo, hi], or one no float holds."""
    bad = ANY_FLOAT | st.booleans() | st.integers(max_value=lo - 1) | st.just(10**400)
    return bad if hi is None else bad | st.integers(min_value=hi + 1)


#: A two-point domain: a sample position is an integer in {0, 1}, and so is
#: an index into a two-hypothesis class.  The positions (or indices) of a
#: case are all equal, so their array takes the bad value's dtype.
DOMAIN_SIZE = 2
BAD_POSITION = (
    ANY_FLOAT
    | st.booleans()
    | st.integers(max_value=-1)
    | st.integers(min_value=DOMAIN_SIZE)
    | st.sampled_from(["0", "1"])
)
#: Values a ±1 entry refuses: 255 must not wrap to -1 nor 1.7 truncate to 1.
BAD_SIGN = (
    st.integers().filter(lambda v: v not in (1, -1))
    | ANY_FLOAT.filter(lambda v: v not in (1.0, -1.0))
    | st.sampled_from([255, 1j, "1", "-1"])
)

BOUND_FIELDS = dict(n=5000, H_size=16, theta=0.3, delta=0.05, loss=0.12, c=1.0)
SCHEME = build_partition(5000, 16)
PARAMS = PhiRhoParams(0.25, 64)
SLOPE_READY = PhiRhoParams(0.25, 128)  # N >= 32*(2*theta_i)^-2
STUMPS = build_stump_class(1, 2)
TASK, TASK_SAMPLE = generate_synthetic(STUMPS, 20, 0.1, 0)
TWO_CONSTANTS = HypothesisClass([[1, 1], [-1, -1]])
VOTE = VotingClassifier.point_mass(0, len(STUMPS))
DRAW = sample_discretization(VOTE, STUMPS, 4, 0)

# name -> (callable, valid keyword arguments, {argument: strategy of bad values})
CASES = {
    "BoundInputs": (
        BoundInputs,
        BOUND_FIELDS,
        {
            "n": not_a_count(1),
            "H_size": not_a_count(2),
            "theta": real(outside(0.0, 1.0, lo_in=False)),
            "delta": real(outside(0.0, 1.0, lo_in=False, hi_in=False)),
            "loss": real(outside(0.0, 1.0)),
            "c": real(below(0.0)),
        },
    ),
    "gkl20_lower_report": (
        gkl20_lower_report,
        dict(inputs=BoundInputs(**BOUND_FIELDS), tau=0.2),
        {"tau": real(outside(0.0, 1.0, lo_in=False))},
    ),
    "build_partition": (
        build_partition,
        dict(n=5000, H_size=16),
        {"n": not_a_count(1), "H_size": not_a_count(2)},
    ),
    "delta_allocation": (
        delta_allocation,
        dict(delta=0.05, scheme=SCHEME),
        {"delta": real(outside(0.0, 1.0, lo_in=False, hi_in=False))},
    ),
    "choose_N_main": (
        choose_N_main,
        dict(theta_next=0.5, loss_next=0.25, c=32.0),
        {
            "theta_next": real(outside(0.0, 2.0, lo_in=False)),
            "loss_next": real(outside(0.0, 2.0, lo_in=False)),
            "c": real(below(0.0, lo_in=False)),
        },
    ),
    "choose_N_within_const": (
        choose_N_within_const,
        dict(theta_next=0.5, n=5000, H_size=16),
        {
            "theta_next": real(outside(0.0, 2.0, lo_in=False)),
            "n": not_a_count(1),
            "H_size": not_a_count(2),
        },
    ),
    "k_star": (
        k_star,
        dict(N=16, eta=0.25),
        {"N": not_a_count(1, 2**53), "eta": real(outside(-1.0, 1.0))},
    ),
    "binom_margin_tail": (
        binom_margin_tail,
        dict(N=16, lam=0.3, eta=0.25),
        {
            "N": not_a_count(1, 2**53),
            "lam": real(outside(-1.0, 1.0)),
            "eta": real(outside(-1.0, 1.0)),
        },
    ),
    "binom_margin_tail_batch": (
        binom_margin_tail_batch,
        dict(N=16, lams=[0.1, 0.3], eta=0.25),
        {
            "N": not_a_count(1, 2**53),
            "lams": reals(outside(-1.0, 1.0)),
            "eta": real(outside(-1.0, 1.0)),
        },
    ),
    "PhiRhoParams": (
        PhiRhoParams,
        dict(theta_i=0.25, N=64),
        {"theta_i": real(outside(0.0, C_THETA, lo_in=False)), "N": not_a_count(1, 2**53)},
    ),
    "phi": (phi, dict(lam=0.1, params=PARAMS), {"lam": real(outside(-C_THETA, C_THETA))}),
    "rho": (rho, dict(lam=0.1, params=PARAMS), {"lam": real(outside(-C_THETA, C_THETA))}),
    "phi_many": (
        phi_many,
        dict(lams=[0.1, 0.1], params=PARAMS),
        {"lams": reals(outside(-C_THETA, C_THETA))},
    ),
    "rho_many": (
        rho_many,
        dict(lams=[0.1, 0.1], params=PARAMS),
        {"lams": reals(outside(-C_THETA, C_THETA))},
    ),
    "phi_bound_check": (
        phi_bound_check,
        dict(params=PARAMS, lambda_grid=[0.1, 0.1]),
        {"lambda_grid": grid(outside(-C_THETA, C_THETA))},
    ),
    "diff_replacement_check": (
        diff_replacement_check,
        dict(params=PARAMS, theta=0.4, lambda_grid=[0.1, 0.1]),
        {
            "theta": real(outside(0.25, 0.5, lo_in=False)),
            "lambda_grid": grid(outside(-C_THETA, C_THETA)),
        },
    ),
    "margin_law_monotone_check": (
        margin_law_monotone_check,
        dict(N=16, eta=0.25, lambda_grid=[0.1, 0.1]),
        {
            "N": not_a_count(1, 2**53),
            "eta": real(outside(-1.0, 1.0)),
            "lambda_grid": reals(outside(-1.0, 1.0)),
        },
    ),
    "massart_bound": (
        massart_bound,
        dict(H_size=16, n=200),
        {"H_size": not_a_count(1), "n": not_a_count(1)},
    ),
    "lip_const_bound": (
        lip_const_bound,
        dict(params=PARAMS, c=32.0),
        {"c": real(below(0.0, lo_in=False))},
    ),
    "half_margin_rhs": (
        half_margin_rhs,
        dict(n=200, H_size=8, delta=0.1, theta_next=0.5, loss_next=0.25, N=64),
        {
            "n": not_a_count(1),
            "H_size": not_a_count(2),
            "delta": real(outside(0.0, 1.0, lo_in=False, hi_in=False)),
            "theta_next": real(outside(0.0, 2.0, lo_in=False)),
            "loss_next": real(outside(0.0, 2.0, lo_in=False)),
            "N": not_a_count(1, 2**53),
        },
    ),
    "within_const_rhs": (
        within_const_rhs,
        dict(n=5000, H_size=16, theta_next=0.5, delta=0.05, c=1.0),
        {
            "n": not_a_count(1),
            "H_size": not_a_count(2),
            "theta_next": real(outside(0.0, 2.0, lo_in=False)),
            "delta": real(outside(0.0, 1.0, lo_in=False, hi_in=False)),
            "c": real(below(0.0)),
        },
    ),
    "binomial_ci": (
        binomial_ci,
        dict(trials=100, p=0.1, level=0.95),
        {
            "trials": not_a_count(0),
            "p": real(outside(0.0, 1.0)),
            "level": real(outside(0.0, 1.0)),
        },
    ),
    "LabeledSample": (
        lambda domain_size, position, label: LabeledSample(domain_size, [position], [label]),
        dict(domain_size=DOMAIN_SIZE, position=1, label=-1),
        {"domain_size": not_a_count(1), "position": BAD_POSITION, "label": BAD_SIGN},
    ),
    "HypothesisClass": (
        lambda value: HypothesisClass([[value, 1], [1, -1]]),
        dict(value=-1),
        {"value": BAD_SIGN},
    ),
    "DiscretizedClassifier": (
        lambda index: DiscretizedClassifier(TWO_CONSTANTS, [index, index]),
        dict(index=1),
        {"index": BAD_POSITION},
    ),
    "smallest_c_monotone": (
        lambda target: smallest_c_monotone(lambda c: c, target),
        dict(target=0.3),
        {"target": real(NON_FINITE)},
    ),
    "DataDistribution": (
        lambda probabilities, position: DataDistribution(
            LabeledSample(DOMAIN_SIZE, [position, position], [1, -1]), probabilities
        ),
        dict(probabilities=[0.25, 0.75], position=1),
        {"probabilities": reals(outside(0.0, 1.0)), "position": BAD_POSITION},
    ),
    "VotingClassifier": (
        VotingClassifier,
        dict(weights=[0.25, 0.75]),
        {"weights": reals(outside(0.0, 1.0))},
    ),
    "empirical_margin_loss": (
        empirical_margin_loss,
        dict(f=VOTE, H=STUMPS, S=TASK_SAMPLE, theta=0.5),
        {"theta": real(outside(0.0, 1.0))},
    ),
    "true_margin_loss": (
        true_margin_loss,
        dict(f=VOTE, H=STUMPS, D=TASK, theta=0.5),
        {"theta": real(outside(0.0, 1.0))},
    ),
    "decomposition_residual": (
        decomposition_residual,
        dict(f=VOTE, g=DRAW, H=STUMPS, D=TASK, S=TASK_SAMPLE, theta=0.5, theta_i=0.25),
        {
            "theta": real(outside(0.0, 1.0, lo_in=False)),
            "theta_i": real(outside(0.0, 1.0, lo_in=False)),
        },
    ),
    "expected_half_margin_loss_bound_check": (
        expected_half_margin_loss_bound_check,
        dict(f=VOTE, H=STUMPS, D=TASK, theta_i=0.5, N=32),
        {"theta_i": real(outside(0.0, 1.0, lo_in=False)), "N": not_a_count(1, 2**53)},
    ),
    "locate": (
        lambda theta, loss: (SCHEME.locate_theta(theta), SCHEME.locate_loss(loss)),
        dict(theta=0.3, loss=0.12),
        {
            "theta": real(outside(SCHEME.theta_cells[0].lo, 1.0, lo_in=False)),
            "loss": real(outside(0.0, 1.0)),
        },
    ),
    "point_mass": (
        VotingClassifier.point_mass,
        dict(index=1, size=3),
        {
            "index": not_a_count(0, 2),
            "size": ANY_FLOAT | st.booleans() | st.integers(max_value=1),
        },
    ),
    "DataDistribution.sample": (
        TASK.sample,
        dict(n=5, rng_seed=0),
        {"n": not_a_count(1), "rng_seed": st.none()},
    ),
    "build_stump_class": (build_stump_class, dict(d=1, k=2), {"d": not_a_count(1), "k": not_a_count(1)}),
    "generate_synthetic": (
        lambda n, noise, rng_seed: generate_synthetic(STUMPS, n, noise, rng_seed),
        dict(n=5, noise=0.1, rng_seed=0),
        {
            "n": not_a_count(1),
            "noise": real(outside(0.0, 0.5, hi_in=False)),
            "rng_seed": st.none(),
        },
    ),
    "sample_discretization": (
        lambda N, rng_seed: sample_discretization(VOTE, STUMPS, N, rng_seed),
        dict(N=4, rng_seed=0),
        {"N": not_a_count(1, 2**53), "rng_seed": st.none()},
    ),
    "adaboost": (
        lambda T: adaboost(TASK_SAMPLE, STUMPS, T),
        dict(T=2),
        {"T": not_a_count(1)},
    ),
    "margin_histogram": (
        lambda bin_count: margin_histogram(
            VotingClassifier.point_mass(0, len(STUMPS)), STUMPS, TASK_SAMPLE, bin_count
        ),
        dict(bin_count=4),
        {"bin_count": not_a_count(2)},
    ),
    "empirical_rademacher": (
        lambda trials, rng_seed: empirical_rademacher(STUMPS, TASK_SAMPLE, trials, rng_seed),
        dict(trials=10, rng_seed=0),
        {"trials": not_a_count(1), "rng_seed": st.none()},
    ),
    "convexity_collapse_check": (
        lambda trials, rng_seed: convexity_collapse_check(
            STUMPS, TASK_SAMPLE, trials, rng_seed
        ),
        dict(trials=10, rng_seed=0),
        {"trials": not_a_count(1), "rng_seed": st.none()},
    ),
    "lipschitz_slope_check": (
        lambda num_points: lipschitz_slope_check(SLOPE_READY, "middle", num_points),
        dict(num_points=10),
        {"num_points": not_a_count(1)},
    ),
    "random_hypothesis_class": (
        random_hypothesis_class,
        dict(rng_seed=0, X_size=3, H_size=4),
        {"rng_seed": st.none(), "X_size": not_a_count(2), "H_size": not_a_count(1)},
    ),
    "random_distribution": (
        random_distribution,
        dict(rng_seed=0, domain_size=3),
        {"rng_seed": st.none(), "domain_size": not_a_count(1)},
    ),
    "random_voting": (
        random_voting,
        dict(rng_seed=0, size=3),
        {"rng_seed": st.none(), "size": not_a_count(1)},
    ),
}


N_CALLS = {
    "k_star": lambda N: k_star(N, 0.1),
    "binom_margin_tail": lambda N: binom_margin_tail(N, 0.1, 0.1),
    "binom_margin_tail_batch": lambda N: binom_margin_tail_batch(N, [0.1], 0.1),
    "sample_discretization": lambda N: sample_discretization(
        VotingClassifier([0.5, 0.5]), TWO_CONSTANTS, N, 0
    ),
    "PhiRhoParams": lambda N: PhiRhoParams(0.5, N),
}


@pytest.mark.parametrize("N", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
@pytest.mark.parametrize("name", sorted(N_CALLS))
def test_an_N_a_double_cannot_hold_is_rejected(name, N):
    # bdtrc takes N as a double, which holds every integer only up to 2**53
    with pytest.raises(ValueError, match="N"):
        N_CALLS[name](N)


def test_massart_bound_reads_any_count_a_float_holds():
    expected = math.sqrt(2.0 * math.log(2.0**64) / 5)
    assert massart_bound(2**64, 5) == pytest.approx(expected)
    with pytest.raises(ValueError, match="n has 401 digits"):
        massart_bound(5, 10**400)
    with pytest.raises(ValueError, match="H_size has 401 digits"):
        massart_bound(10**400, 5)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_a_negative_seed_fails_at_parse(kind):
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -3"):
        parse_config_text(f"[{kind}]\nseed = -3\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_call_succeeds(name):
    fn, valid, _ = CASES[name]
    fn(**valid)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_argument_raises_value_error(name, data):
    fn, valid, bad = CASES[name]
    arg = data.draw(st.sampled_from(sorted(bad)), label="argument")
    value = data.draw(bad[arg], label=arg)
    with pytest.raises(ValueError):
        fn(**{**valid, arg: value})


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------

CLI_FIXED = {
    "n": "5000", "h-size": "16", "theta": "0.3", "delta": "0.05", "loss": "0.12",
    "c": "1", "tau": "0.2",
}
HUGE = 10**400

CLI_BAD = {
    "n": st.integers(max_value=0) | st.just(HUGE),
    "h-size": st.integers(max_value=1) | st.just(HUGE),
    "theta": outside(0.0, 1.0, lo_in=False),
    "delta": outside(0.0, 1.0, lo_in=False, hi_in=False),
    "loss": outside(0.0, 1.0),
    "c": below(0.0),
    "tau": outside(0.0, 1.0, lo_in=False),
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["eval", "grid"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_bad_argument_exits_2_with_one_error_line(command, data):
    flag = data.draw(st.sampled_from(sorted(CLI_BAD)), label="flag")
    value = data.draw(CLI_BAD[flag], label=flag)
    if command == "eval":
        args = {**CLI_FIXED, flag: value}
        argv = ["bounds", "eval", *(f"--{k}={v}" for k, v in args.items())]
    else:
        fixed = {k: v for k, v in CLI_FIXED.items() if k != flag}
        argv = [
            "bounds", "grid", f"--sweep={flag}", f"--values={CLI_FIXED[flag]},{value}",
            *(f"--{k}={v}" for k, v in fixed.items()),
        ]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def test_every_exported_name_resolves():
    modules = [votemargin] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(votemargin.__path__, "votemargin.")
    ]
    assert "votemargin.harness.reporting" in {m.__name__ for m in modules}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
