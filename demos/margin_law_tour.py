"""
A tour of the binomial margin law
=================================

A voting classifier f assigns weights to base hypotheses; sampling N of
them i.i.d. by weight and averaging gives a random simple classifier g.
On a fixed point with margin lambda = y*f(x), the margin of g follows a
shifted, scaled Binomial(N, 1/2 + lambda/2) law.  This script evaluates
that law exactly, cross-checks it with Monte Carlo, and shows the two
monotonicity properties that everything downstream relies on.
"""

import numpy as np

from votemargin.core import HypothesisClass, VotingClassifier
from votemargin.discretize import (
    binom_margin_tail,
    binom_margin_tail_batch,
    margin_law_monotone_check,
    sample_discretization,
)
from votemargin.rng import stream

# ------------------------------------------------------------------
# Exact tails: P(margin of g > eta) for a few (N, lambda, eta) triples.
# The scalar evaluator works in exact integer arithmetic and returns the
# correctly rounded double.
# ------------------------------------------------------------------
print("exact tails P(margin > eta)")
print(f"{'N':>6} {'lambda':>8} {'eta':>6} {'tail':>24}")
for N in (8, 64, 1024):
    for lam, eta in ((-0.5, 0.0), (0.0, 0.25), (0.3, 0.25), (0.7, 0.5)):
        tail = binom_margin_tail(N, lam, eta)
        print(f"{N:>6} {lam:>8.2f} {eta:>6.2f} {tail:>24.17g}")

# ------------------------------------------------------------------
# Monte Carlo agreement, end to end through the library's own sampler:
# build a two-hypothesis class (the constants +1 and -1), give f weight
# (1+lambda)/2 on the first, and draw discretizations.
# ------------------------------------------------------------------
lam, N, eta, M = 0.3, 16, 0.25, 50_000
H2 = HypothesisClass([[1], [-1]])  # one point, position 0
f = VotingClassifier([(1.0 + lam) / 2.0, (1.0 - lam) / 2.0])

rng = stream(2024, 0)
hits = 0
for _ in range(M):
    g = sample_discretization(f, H2, N, rng)
    if g.values_on(H2)[0] > eta:  # the point is labeled +1, so margin = g(0)
        hits += 1
mc = hits / M
exact = binom_margin_tail(N, lam, eta)
sigma = (exact * (1.0 - exact) / M) ** 0.5
print(f"\nMonte Carlo over {M} sampled g at (N={N}, lambda={lam}, eta={eta}):")
print(f"  estimate {mc:.5f} vs exact {exact:.5f}  ({abs(mc - exact) / sigma:.2f} sigma)")

# ------------------------------------------------------------------
# Monotonicity: the tail never decreases as the point margin lambda
# grows, and never increases as the threshold eta grows.
# ------------------------------------------------------------------
grid = np.linspace(-1.0, 1.0, 2001)
ok, first_bad = margin_law_monotone_check(32, 0.25, grid)
print(f"\nnon-decreasing in lambda over a {grid.size}-point grid: {ok}")

etas = np.linspace(0.0, 1.0, 11)
tails = [binom_margin_tail(32, 0.3, float(e)) for e in etas]
print("non-increasing in eta:", all(a >= b for a, b in zip(tails, tails[1:])))

# The vectorized evaluator (scipy's bdtrc) agrees with the scalar one to
# ~1e-12 absolute and handles whole lambda grids at once.
batch = binom_margin_tail_batch(32, grid, 0.25)
scalar = np.array([binom_margin_tail(32, float(l), 0.25) for l in grid[::200]])
drift = np.max(np.abs(batch[::200] - scalar))
print(f"batch vs scalar max abs drift on spot checks: {drift:.3e}")
