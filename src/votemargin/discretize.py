"""Randomized discretization of voting classifiers and its exact margin law.

A voting classifier f = Σ a_h·h is discretized by sampling N i.i.d. base
hypotheses with probabilities a_h and averaging them.  Conditioned on the
source margin λ = y·f(x), each sampled hypothesis agrees with the label
independently with probability p = 1/2 + λ/2, so the discretized margin
y·g(x) = (2K − N)/N where K ~ Binomial(N, p).  Everything here evaluates
that law exactly.

The scalar tail is correctly rounded.  The success probability
p = 1/2 + λ/2 is a dyadic rational because λ is a double, so the tail is an
exact rational over a power of two.  It runs one 64-bit front, then the
exact loop: the front brackets the rational in integer arithmetic and
answers when both ends of the bracket round to the same double (Ziv's
strategy), and the exact integer sum answers the rare tail that sits on a
rounding boundary; it takes N up to 2^53, and a call at N = 2^20 takes
about 0.1 s (see ``binom_margin_tail``).  The vectorized batch
calls ``scipy.special.bdtrc`` (the regularized incomplete beta function) and
takes N up to 2^20: its measured error against the exact tail is 9.1e-12
absolute at N = 8192 and 4.3e-9 at N = 2^20, and past 2^20 it grows fast.
The threshold k*(η) = floor((η/2 + 1/2)·N) + 1 is computed exactly in
integers, so integer boundary cases are decided exactly.

scipy is imported inside the batch tail, not at module level: importing this
module loads numpy only, and scipy loads on the first batch tail.  The scalar
checks and the slope threshold 32·(2θ_i)⁻² live in the numpy-free
``_scalar``, so ``bounds`` and the CLI import neither this module nor numpy.
"""

from __future__ import annotations

import math

import numpy as np

from ._scalar import PreconditionError, _check_count, _check_real, _slope_threshold
from .core import (
    DataDistribution,
    HypothesisClass,
    LabeledSample,
    VotingClassifier,
    _check_reals,
    _check_size,
    _draw,
    _generator,
    _integer_array,
    _margins,
    _true_margin_loss,
)

__all__ = [
    "DiscretizedClassifier",
    "sample_discretization",
    "k_star",
    "binom_margin_tail",
    "binom_margin_tail_batch",
    "margin_law_monotone_check",
    "first_decrease",
    "decomposition_residual",
    "expected_half_margin_loss_bound_check",
]


def _check_N(N) -> int:
    # the formulas read N as a double, and past 2**53 a double skips integers
    return _check_count(N, "N", 1, 2**53)


def _require_slope_ready(N: int, theta_i: float) -> None:
    """Raise PreconditionError unless N ≥ 32·(2θ_i)⁻²."""
    threshold = _slope_threshold(theta_i)
    if N < threshold:
        raise PreconditionError(
            f"N = {N} violates the precondition N >= 32*(2*theta_i)^-2 = {threshold:.6g}"
        )


def k_star(N: int, eta: float) -> int:
    """Threshold count: y·g(x) > η iff the number of agreeing draws ≥ k*.

    k* = floor((η/2 + 1/2)·N) + 1, evaluated exactly in integers: with
    η = m/d, as ``_tail_problem`` reads λ, it is floor((m + d)·N/(2d)) + 1.
    """
    N = _check_N(N)
    m, d = _check_real(eta, "eta", -1, 1).as_integer_ratio()
    return (m + d) * N // (2 * d) + 1


#: Working precision P, in bits, of the scalar front.  A bracket that
#: straddles a rounding boundary goes to the exact integer loop.
_PRECISION = 64
#: Bits the leading term carries beyond P, absorbing the front's floor errors.
_GUARD_BITS = 64
#: Early stop: the geometric remainder bound must sit P plus this many bits
#: below the leading term.
_STOP_BITS = 32


def _tail_problem(N, lam, eta):
    """The validated scalar tail as (N, k*, pn, qn, sh), or 0.0/1.0 when trivial.

    With λ = m/d (d a power of two for any double), p = pn/2^sh and
    q = qn/2^sh for pn = d + m, qn = d − m and 2^sh = 2d, so each atom is the
    integer C(N,k)·pn^k·qn^(N−k) over 2^(N·sh) and p + q = 1 holds exactly.
    """
    N = _check_N(N)
    lam = _check_real(lam, "lambda", -1, 1)
    ks = k_star(N, eta)
    if ks > N:
        return 0.0
    m, d = lam.as_integer_ratio()
    pn, qn = d + m, d - m
    if pn == 0:
        return 0.0
    if qn == 0:
        return 1.0
    return N, ks, pn, qn, d.bit_length()


def _exact_tail(N: int, ks: int, pn: int, qn: int, sh: int) -> float:
    """The exact oracle: sum the side with fewer atoms in integer arithmetic.

    Step k -> k+1 multiplies the integer atom by (N−k)·pn and divides it,
    exactly, by (k+1)·qn.  The rational is rounded once, correctly, by int/int
    true division.
    """
    if ks - 1 <= N - ks:
        k_lo, k_hi, complement = 0, ks - 1, True
    else:
        k_lo, k_hi, complement = ks, N, False
    term = math.comb(N, k_lo) * pn**k_lo * qn ** (N - k_lo)
    total = term
    for k in range(k_lo, k_hi):
        term = term * ((N - k) * pn) // ((k + 1) * qn)
        total += term
    one = 1 << (N * sh)
    return (one - total) / one if complement else total / one


def _truncate(x: int, bits: int):
    """(x >> s, s), with s the least shift that leaves at most ``bits`` bits."""
    s = max(0, x.bit_length() - bits)
    return x >> s, s


#: Exact factors multiplied into each product of ``_comb_lower`` between
#: two truncations.
_COMB_CHUNK = 128


def _comb_lower(N: int, k: int, bits: int):
    """(m, s) with C(N,k)·(1 − 2^−(bits−1))^(2c+1) ≤ m·2^s ≤ C(N,k), where
    c = ⌈min(k, N−k)/_COMB_CHUNK⌉.

    C(N, k) = Π_{j<J} (N − j) / Π_{j<J} (j + 1) with J = min(k, N−k).  Each
    product takes ``_COMB_CHUNK`` exact factors at a time, and after each
    chunk the numerator is truncated down and the denominator rounded up to
    ``bits`` bits: c truncations per product, each of relative error below
    2^−(bits−1).  One floor division to at least ``bits`` bits adds one more.
    The cost follows the J factors and ``bits``, not the digits of C(N, k).
    """
    J = min(k, N - k)
    num = den = 1
    s = 0
    for j in range(0, J, _COMB_CHUNK):
        top = min(j + _COMB_CHUNK, J)
        num, t = _truncate(num * math.prod(range(N - top + 1, N - j + 1)), bits)
        den *= math.prod(range(j + 1, top + 1))
        u = max(0, den.bit_length() - bits)
        den = -(-den >> u)  # rounded up
        s += t - u
    lift = bits + den.bit_length() - num.bit_length()
    return (num << lift) // den, s - lift


def _pow_lower(base: int, e: int, bits: int):
    """(m, s) with base^e·(1 − 2^−(bits−1))^(e−1) ≤ m·2^s ≤ base^e.

    Left-to-right binary powering, truncated to ``bits`` bits after every
    product.  A squaring doubles the error already carried and adds one
    truncation, a multiplication by the exact base adds one, so the
    exponent of the error factor stays at most e − 1.
    """
    if e == 0:
        return 1, 0
    m, s = base, 0
    for bit in bin(e)[3:]:
        m, t = _truncate(m * m, bits)
        s = 2 * s + t
        if bit == "1":
            m, t = _truncate(m * base, bits)
            s += t
    return m, s


def _front_tail(N: int, ks: int, pn: int, qn: int, sh: int):
    """The correctly rounded tail from fixed-precision integers, or None.

    Sums the side of k* away from the mode, chosen by k* against N·p: the
    upper side k ≥ k* when k* > N·p, otherwise the lower side k < k*,
    complemented.  Every step ratio is then < 1 and the ratios fall
    monotonically, and the complement is only taken when the upper tail is
    at least 1/2 (k* ≤ floor(N·p) ≤ the median), so 1 − L never cancels.

    Error bound, with B = P + 64 bits and τ_j the exact j-th atom on
    the summed side in units of the leading term's scale:

    * the leading term T_0 is a lower bound of C(N,k₀)·pn^k₀·qn^(N−k₀) from
      a truncated coefficient (``_comb_lower``, 2c + 1 truncations with
      c = ⌈min(k₀, N−k₀)/``_COMB_CHUNK``⌉) and truncated powering,
      normalised to B bits; it makes at most N + 2 + 2c lossy truncations
      of relative error < 2^−(B−1) each, so τ_0·(1 − δ) ≤ T_0 ≤ τ_0 with
      δ = (N + 2 + 2c)·2^−(B−1);
    * each step T_{j+1} = floor(T_j·a/b) loses < 1 unit and scales the
      earlier losses by a/b < 1, so τ_j·(1 − δ) − j ≤ T_j ≤ τ_j, and J
      steps lose at most J·(J+1)/2 units in all;
    * stopping early after term J with next ratio r = a/b bounds the rest
      geometrically: (1 − δ)·Σ_{i>J} τ_i ≤ (T_J + J)·r/(1 − r).

    So Σ T_j ≤ S ≤ (Σ T_j + J(J+1)/2 + rest)/(1 − δ), and the answer is
    returned when both ends round, by int/int true division, to the same
    double; otherwise None.
    """
    bits = _PRECISION + _GUARD_BITS
    upper = ks << sh > N * pn  # k* > N·p
    k, end, step = (ks, N, 1) if upper else (ks - 1, 0, -1)
    term, s = _comb_lower(N, k, bits)
    losses = N + 2 + 2 * -(-min(k, N - k) // _COMB_CHUNK)  # δ·2^(B−1)
    for base, e in ((pn, k), (qn, N - k)):
        power, t = _pow_lower(base, e, bits)
        term, u = _truncate(term * power, bits)
        s += t + u
    lift = bits - term.bit_length()  # exact: normalise T_0 to B bits
    term <<= lift
    s -= lift
    total = term
    tiny = term >> (_PRECISION + _STOP_BITS)
    steps = rest = 0
    while k != end:
        if upper:
            a, b = (N - k) * pn, (k + 1) * qn
        else:
            a, b = k * qn, (N - k + 1) * pn
        if term <= tiny:
            rest = -(-(term + steps) * a // (b - a))
            if rest <= tiny:
                break
            rest = 0
        term = term * a // b
        total += term
        steps += 1
        k += step
    hi = total + steps * (steps + 1) // 2 + rest
    hi += (hi * losses >> (bits - 2)) + 1  # ≥ hi/(1 − δ) as δ ≤ 1/2
    one = 1 << (N * sh - s)
    if upper:
        lo_value, hi_value = total / one, hi / one
    else:
        lo_value, hi_value = (one - hi) / one, (one - total) / one
    return lo_value if lo_value == hi_value else None


def binom_margin_tail(N: int, lam: float, eta: float) -> float:
    """Pr[y·g(x) > η] for g drawn from the discretization of f with y·f(x) = λ.

    Equals Pr[Binom(N, 1/2 + λ/2) ≥ k*(η)], correctly rounded.  The success
    probability p = (1 + λ)/2 is a dyadic rational because λ is a double,
    so the tail is an exact rational over a power of two.  It runs one
    64-bit front, then the exact loop: the front (``_front_tail``) brackets
    the rational and returns when both ends round to the same double (Ziv's
    strategy).  Only when the bracket straddles a rounding boundary (in
    practice, a tail that is exactly the midpoint between two doubles) does
    the exact integer loop answer.

    N up to 2^53 is accepted.  The front takes C(N, k) as a truncated lower
    bound (``_comb_lower``), so its cost follows the min(k, N−k) factors of
    the coefficient and the bracket's precision, not the digits of C(N, k).
    Measured on a 2-core host: 0.08–0.09 s at (2^20, 0.3, 0.25), 0.11–0.15 s
    at (2^20, 0.001, 0.0) and 0.4–0.5 s at N = 2^22, where the exact
    ``math.comb`` took 7–9 s, 12–14 s and did not finish in 120 s.  At
    N = 12 800 a call takes about 1 ms, a third of its time with the exact
    coefficient.  The exact loop, reached only at a rounding boundary, still
    forms C(N, k) exactly.
    """
    problem = _tail_problem(N, lam, eta)
    if isinstance(problem, float):
        return problem
    value = _front_tail(*problem)
    return _exact_tail(*problem) if value is None else value


def binom_margin_tail_batch(N: int, lams, eta: float) -> np.ndarray:
    """Vectorized binom_margin_tail over an array of λ values, for N ≤ 2^20.

    Evaluates ``scipy.special.bdtrc(k* − 1, N, 1/2 + λ/2)`` (the regularized
    incomplete beta function).  Its largest error against the exact tail,
    measured over 4001 λ on [−1, 1] plus 4001 in η ± 40/√N for
    η in {−0.5, 0, 0.1, 0.25, 0.5}, is 1.7e-12 absolute at N = 2048,
    9.1e-12 at N = 8192, 6.3e-12 at N = 12800 and 4.3e-9 at N = 2^20, which
    is ample for grid and Monte Carlo work.  Past 2^20 it grows fast (1.2e-6
    at N = 2^21, 8e-3 at N = 2^24), so a larger N is refused; the scalar
    tail takes N up to 2^53.
    """
    try:
        N = _check_count(N, "N", 1, 2**20)
    except ValueError as exc:
        raise ValueError(
            f"{exc}: 2**20 is the largest N the vectorized tail is accurate for; "
            "the scalar tail binom_margin_tail takes N up to 2**53"
        ) from None
    lams = _check_reals(lams, "lambda", -1, 1)
    ks = k_star(N, eta)  # at most N + 1, where bdtrc(N, N, p) is 0.0
    from scipy.special import bdtrc  # local: scipy loads on the first tail, not on import

    return bdtrc(ks - 1, N, 0.5 + 0.5 * lams)


class DiscretizedClassifier:
    """An unweighted average of N hypotheses drawn from a class, stored by index.

    g keeps the draws and the size |H| of their class, which is its length
    as for a VotingClassifier, and answers ``values_on(H)`` under the
    contract of ``VotingClassifier.values_on``.
    """

    __slots__ = ("indices", "_size")

    def __init__(self, H: HypothesisClass, indices):
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError("indices must be a non-empty 1-d sequence")
        idx = _integer_array(idx, "hypothesis indices").astype(np.intp)
        if idx.min() < 0 or idx.max() >= len(H):
            raise ValueError("hypothesis index out of range")
        idx.setflags(write=False)
        self.indices = idx
        self._size = len(H)

    @property
    def N(self) -> int:
        return int(self.indices.size)

    def __len__(self) -> int:
        return self._size

    def values_on(self, H: HypothesisClass) -> np.ndarray:
        """g(x) = (1/N)·Σ_draws h(x) for every domain point, in domain order.

        Σ_draws h(x) is an exact integer: the draw counts times the int8
        rows, in hypothesis order, divided by N once.
        """
        _check_size(self, H)
        counts = np.bincount(self.indices, minlength=len(H))
        return np.einsum("i,ij->j", counts, H.matrix) / self.N


def sample_discretization(f: VotingClassifier, H: HypothesisClass, N, rng_seed) -> DiscretizedClassifier:
    """Draw g ~ Q_f: N i.i.d. hypothesis indices with probabilities a_h.

    ``rng_seed`` is required, an integer seed or a numpy Generator.
    """
    N = _check_N(N)
    _check_size(f, H)
    return DiscretizedClassifier(H, _draw_indices(f, N, _generator(rng_seed)))


def _draw_indices(f: VotingClassifier, shape, rng: np.random.Generator) -> np.ndarray:
    """Hypothesis indices of the given shape, i.i.d. with probabilities a_h.

    The one draw behind ``sample_discretization`` (shape N) and the Monte
    Carlo margins of the ``margin-law`` suite (shape (rows, N)), with
    ``Generator.choice``'s indices (see ``core._draw``).  numpy draws the
    entries in row-major order from one uniform stream, so an N-draw is
    row 0 of an (M, N) draw from the same generator, and consecutive row
    blocks equal one draw of all their rows.
    """
    return _draw(rng, f.weights, shape)


def first_decrease(values):
    """Index of the first decrease by more than 1e-14, or None."""
    v = np.asarray(values, dtype=np.float64)
    drops = np.flatnonzero(v[1:] < v[:-1] - 1e-14)
    return int(drops[0]) + 1 if drops.size else None


def margin_law_monotone_check(N: int, eta: float, lambda_grid):
    """Check that the margin tail is non-decreasing in λ over a sorted grid.

    Returns (ok, first_violation_index); the index points at the first grid
    entry whose tail drops below its predecessor by more than 1e-14.
    """
    grid = np.asarray(lambda_grid)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("lambda grid must be a non-empty 1-d array")
    tails = binom_margin_tail_batch(N, grid, eta)  # checks the grid
    if (np.diff(grid) < 0).any():
        raise ValueError("lambda grid must be sorted ascending")
    violation = first_decrease(tails)
    return violation is None, violation


def decomposition_residual(
    f: VotingClassifier,
    g: DiscretizedClassifier,
    H: HypothesisClass,
    D: DataDistribution,
    S: LabeledSample,
    theta: float,
    theta_i: float,
) -> float:
    """|LHS − RHS| of the exact loss-splitting identity.

    LHS = L_D(f) − L_S^θ(f); RHS rewrites it through the margin losses of a
    concrete discretization g at threshold θ_i/2 plus four joint-event
    correction terms.  The identity is algebraic, so the residual is float
    noise (≤ 1e−12) for any f, g, D, S and any θ, θ_i in (0, 1].
    """
    theta = _check_real(theta, "theta", 0, 1, lo_open=True)
    theta_i = _check_real(theta_i, "theta_i", 0, 1, lo_open=True)
    half = theta_i / 2.0

    f_values = f.values_on(H)  # one pass per voter serves both samples
    g_values = g.values_on(H)
    fm_D, gm_D = _margins(f_values, H, D.atoms), _margins(g_values, H, D.atoms)
    fm_S, gm_S = _margins(f_values, H, S), _margins(g_values, H, S)
    probs = D.probabilities
    n = fm_S.size

    lhs = float(probs[fm_D <= 0.0].sum()) - float(np.count_nonzero(fm_S <= theta)) / n

    loss_diff = (
        float(probs[gm_D <= half].sum()) - float(np.count_nonzero(gm_S <= half)) / n
    )
    phi_like = (
        float(probs[(gm_D > half) & (fm_D <= 0.0)].sum())
        - float(np.count_nonzero((gm_S > half) & (fm_S <= theta))) / n
    )
    rho_like = (
        float(np.count_nonzero((gm_S <= half) & (fm_S > theta))) / n
        - float(probs[(gm_D <= half) & (fm_D > 0.0)].sum())
    )
    rhs = loss_diff + phi_like + rho_like
    return abs(lhs - rhs)


def expected_half_margin_loss_bound_check(
    f: VotingClassifier,
    H: HypothesisClass,
    D: DataDistribution,
    theta_i: float,
    N: int,
):
    """Check E_{g~Q_f}[L_D^{θ_i/2}(g)] ≤ L_D^{(3/4)θ_i}(f) + exp(−Nθ_i²/128).

    The left side is exact: the expectation over g reduces per atom of D to
    one minus the binomial margin tail at η = θ_i/2.  Requires
    N ≥ 32·(2θ_i)^{−2}.  Returns (lhs, rhs, holds).  Both sides read the
    margins of one ``values_on``.
    """
    theta_i = _check_real(theta_i, "theta_i", 0, 1, lo_open=True)
    N = _check_N(N)
    _require_slope_ready(N, theta_i)
    margins = _margins(f.values_on(H), H, D.atoms)
    probs = D.probabilities
    tails = binom_margin_tail_batch(N, margins, theta_i / 2.0)
    lhs = float(probs @ (1.0 - tails))
    rhs = _true_margin_loss(margins, probs, 0.75 * theta_i) + math.exp(-N * theta_i**2 / 128.0)
    return lhs, rhs, lhs <= rhs
