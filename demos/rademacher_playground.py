"""
Rademacher complexity, exactly and by Monte Carlo
=================================================

For a finite hypothesis class on a small sample, the Rademacher complexity
E_sigma sup_h (1/n) sum_i sigma_i h(x_i) can be computed exactly by
enumerating all 2^n sign vectors.  This script compares the exact value
with the Monte Carlo estimator, checks the sqrt(2 ln|H|/n) ceiling for
finite classes, and demonstrates that taking convex combinations of the
class does not change the supremum.
"""

import numpy as np

from votemargin.core import LabeledSample
from votemargin.harness.checks import random_hypothesis_class
from votemargin.rademacher import (
    convexity_collapse_check,
    empirical_rademacher,
    exhaustive_rademacher,
    massart_bound,
)
from votemargin.rng import stream

rng = stream(404, 0)

# ------------------------------------------------------------------
# A random class of 12 hypotheses on 10 sample points: exact value by
# full enumeration vs the 20k-trial Monte Carlo estimate.
# ------------------------------------------------------------------
H = random_hypothesis_class(rng, X_size=10, H_size=12)
S = LabeledSample(H.domain_size, np.arange(10), np.ones(10))

exact = exhaustive_rademacher(H, S)
estimate = empirical_rademacher(H, S, trials=20_000, rng_seed=stream(404, 1))
print(f"exact Rademacher complexity (2^{len(S)} sign vectors): {exact.value:.6f}")
print(f"Monte Carlo estimate ({estimate.trials} trials): "
      f"{estimate.value:.6f} +- {estimate.std_error:.6f}")
print(f"deviation: {abs(estimate.value - exact.value) / estimate.std_error:.2f} sigma")

# ------------------------------------------------------------------
# The finite-class ceiling sqrt(2 ln|H| / n), checked across sizes.
# ------------------------------------------------------------------
print(f"\n{'|H|':>5} {'n':>4} {'exact':>10} {'ceiling':>10}")
for h_size, n in ((4, 8), (16, 10), (32, 12)):
    Hs = random_hypothesis_class(rng, X_size=n, H_size=h_size)
    Ss = LabeledSample(Hs.domain_size, np.arange(n), np.ones(n))
    value = exhaustive_rademacher(Hs, Ss).value
    ceiling = massart_bound(h_size, n)
    print(f"{h_size:>5} {n:>4} {value:>10.5f} {ceiling:>10.5f}   holds: {value <= ceiling}")

# ------------------------------------------------------------------
# Convexity changes nothing: the sup of a linear functional over the
# convex hull of H is attained at a vertex, so random mixtures never
# beat the best single hypothesis.
# ------------------------------------------------------------------
collapsed = convexity_collapse_check(H, S, trials=200, rng_seed=stream(404, 2))
print(f"\nconvex mixtures never exceed the vertex supremum: {collapsed}")

# Two extreme classes with known values: a single hypothesis has
# complexity 0; all sign patterns on two points give exactly 1.
from votemargin.core import HypothesisClass

single = HypothesisClass([[1, 1]])
S2 = LabeledSample(2, [0, 1], [1, 1])
print(f"single hypothesis: {exhaustive_rademacher(single, S2).value}")

complete = HypothesisClass([[1, 1], [1, -1], [-1, 1], [-1, -1]])
print(f"all four sign patterns on two points: {exhaustive_rademacher(complete, S2).value}")
