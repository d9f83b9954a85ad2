"""Every public numeric entry point rejects a bad argument with ValueError.

Each case is a valid call plus, per argument, the values that argument must
refuse: NaN, ±inf, or a finite float outside its range, and for a sample
position also a bool or an integer outside the domain.  Hypothesis swaps one
argument of the valid call for such a value.  Every entry point that takes a
discretization size N refuses one above 2**53.  The CLI cases do the same to
``bounds eval`` and ``bounds grid``, which must exit 2 with one ``error:``
line.  A last test checks that every ``__all__`` entry of every module
resolves, so a deletion cannot leave a stale export behind.
"""

import contextlib
import importlib
import io
import math
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votemargin
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
    DiscreteDomain,
    HypothesisClass,
    LabeledSample,
    VotingClassifier,
)
from votemargin.discretize import (
    binom_margin_tail,
    binom_margin_tail_batch,
    k_star,
    sample_discretization,
)
from votemargin.harness.checks import binomial_ci
from votemargin.phirho import PhiRhoParams, lip_const_bound, phi, phi_many, rho, rho_many
from votemargin.rademacher import massart_bound

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
ANY_FLOAT = st.floats()


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


#: A two-point domain: a sample position is an integer in {0, 1}.  The
#: positions of a case are all equal, so their array takes the bad value's dtype.
DOMAIN = DiscreteDomain(("a", "b"))
BAD_POSITION = (
    ANY_FLOAT
    | st.booleans()
    | st.integers(max_value=-1)
    | st.integers(min_value=len(DOMAIN))
)

BOUND_FIELDS = dict(n=5000, H_size=16, theta=0.3, delta=0.05, loss=0.12, c=1.0)
SCHEME = build_partition(5000, 16)
PARAMS = PhiRhoParams(0.25, 64)

# name -> (callable, valid keyword arguments, {argument: strategy of bad values})
CASES = {
    "BoundInputs": (
        BoundInputs,
        BOUND_FIELDS,
        {
            "n": ANY_FLOAT,
            "H_size": ANY_FLOAT,
            "theta": outside(0.0, 1.0, lo_in=False),
            "delta": outside(0.0, 1.0, lo_in=False, hi_in=False),
            "loss": outside(0.0, 1.0),
            "c": below(0.0),
        },
    ),
    "gkl20_lower_report": (
        gkl20_lower_report,
        dict(inputs=BoundInputs(**BOUND_FIELDS), tau=0.2),
        {"tau": outside(0.0, 1.0, lo_in=False)},
    ),
    "build_partition": (
        build_partition,
        dict(n=5000, H_size=16),
        {"n": ANY_FLOAT, "H_size": ANY_FLOAT},
    ),
    "delta_allocation": (
        delta_allocation,
        dict(delta=0.05, scheme=SCHEME),
        {"delta": outside(0.0, 1.0, lo_in=False, hi_in=False)},
    ),
    "choose_N_main": (
        choose_N_main,
        dict(theta_next=0.5, loss_next=0.25, c=32.0),
        {
            "theta_next": outside(0.0, 2.0, lo_in=False),
            "loss_next": outside(0.0, 2.0, lo_in=False),
            "c": below(0.0, lo_in=False),
        },
    ),
    "choose_N_within_const": (
        choose_N_within_const,
        dict(theta_next=0.5, n=5000, H_size=16),
        {
            "theta_next": outside(0.0, 2.0, lo_in=False),
            "n": ANY_FLOAT,
            "H_size": ANY_FLOAT,
        },
    ),
    "k_star": (
        k_star,
        dict(N=16, eta=0.25),
        {"N": ANY_FLOAT, "eta": outside(-1.0, 1.0)},
    ),
    "binom_margin_tail": (
        binom_margin_tail,
        dict(N=16, lam=0.3, eta=0.25),
        {"N": ANY_FLOAT, "lam": outside(-1.0, 1.0), "eta": outside(-1.0, 1.0)},
    ),
    "binom_margin_tail_batch": (
        lambda N, lam, eta: binom_margin_tail_batch(N, [0.1, lam], eta),
        dict(N=16, lam=0.3, eta=0.25),
        {"N": ANY_FLOAT, "lam": outside(-1.0, 1.0), "eta": outside(-1.0, 1.0)},
    ),
    "PhiRhoParams": (
        PhiRhoParams,
        dict(theta_i=0.25, N=64),
        {"theta_i": outside(0.0, C_THETA, lo_in=False), "N": ANY_FLOAT},
    ),
    "phi": (phi, dict(lam=0.1, params=PARAMS), {"lam": outside(-C_THETA, C_THETA)}),
    "rho": (rho, dict(lam=0.1, params=PARAMS), {"lam": outside(-C_THETA, C_THETA)}),
    "phi_many": (
        lambda lam, params: phi_many([0.1, lam], params),
        dict(lam=0.1, params=PARAMS),
        {"lam": outside(-C_THETA, C_THETA)},
    ),
    "rho_many": (
        lambda lam, params: rho_many([0.1, lam], params),
        dict(lam=0.1, params=PARAMS),
        {"lam": outside(-C_THETA, C_THETA)},
    ),
    "massart_bound": (
        massart_bound,
        dict(H_size=16, n=200),
        {"H_size": below(1.0), "n": below(1.0)},
    ),
    "lip_const_bound": (
        lip_const_bound,
        dict(params=PARAMS, c=32.0),
        {"c": below(0.0, lo_in=False)},
    ),
    "binomial_ci": (
        binomial_ci,
        dict(trials=100, p=0.1, level=0.95),
        {"trials": ANY_FLOAT, "p": outside(0.0, 1.0), "level": outside(0.0, 1.0)},
    ),
    "LabeledSample": (
        lambda position: LabeledSample(DOMAIN, [position], [1]),
        dict(position=1),
        {"position": BAD_POSITION},
    ),
    "DataDistribution": (
        lambda a, b, position: DataDistribution(
            LabeledSample(DOMAIN, [position, position], [1, -1]), [a, b]
        ),
        dict(a=0.25, b=0.75, position=1),
        {"a": outside(0.0, 1.0), "b": outside(0.0, 1.0), "position": BAD_POSITION},
    ),
    "VotingClassifier": (
        lambda a, b: VotingClassifier([a, b]),
        dict(a=0.25, b=0.75),
        {"a": outside(0.0, 1.0), "b": outside(0.0, 1.0)},
    ),
    "point_mass": (
        VotingClassifier.point_mass,
        dict(index=1, size=3),
        {
            "index": ANY_FLOAT | st.integers(max_value=-1) | st.integers(min_value=3),
            "size": ANY_FLOAT | st.integers(max_value=1),
        },
    ),
}


TWO_CONSTANTS = HypothesisClass(DOMAIN, [[1, 1], [-1, -1]])
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
