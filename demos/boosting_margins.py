"""
Boosting, margins, and the bounds in action
===========================================

AdaBoost over decision stumps on a small synthetic task: train to zero
error, look at the margin distribution the ensemble actually achieves,
and feed the measured losses into the generalization bounds.  Ends with
the calibrated end-to-end experiment that ties everything together.
"""

import numpy as np

from votemargin.boosting import (
    adaboost,
    build_stump_class,
    generate_synthetic,
    margin_histogram,
)
from votemargin.bounds import BoundInputs, all_reports
from votemargin.core import empirical_margin_loss, margins_on_sample, true_margin_loss
from votemargin.rng import stream

# ------------------------------------------------------------------
# A separable task: labels are a majority vote of a few hidden stumps,
# no label noise.  The stump class has 2dk threshold stumps plus the two
# constant hypotheses.
# ------------------------------------------------------------------
d, k = 2, 7
H = build_stump_class(d, k)
print(f"stump class: d={d} features, k={k} thresholds "
      f"-> |H| = {len(H)}, |X| = {H.domain_size}")

D, S = generate_synthetic(H, n=300, noise=0.0, rng_seed=stream(7, 0))
run = adaboost(S, H, T=80)
print(f"AdaBoost: {len(run.rounds)} rounds, status '{run.status}'")

last = run.rounds[-1]
print(f"final training error: {last.train_error:.4f}")
print(f"final exponential loss: {last.exp_loss:.4f}")

f = run.classifier
margins = np.sort(margins_on_sample(f, H, S))
print(f"minimum margin on the sample: {margins[0]:.4f}")

# ------------------------------------------------------------------
# The margin distribution: boosting pushes the whole histogram to the
# right of zero, with most mass well above it.
# ------------------------------------------------------------------
hist = margin_histogram(f, H, S, bin_count=8)
print("\nmargin histogram over [-1, 1]:")
for j, count in enumerate(hist.counts):
    lo, hi = hist.edges[j], hist.edges[j + 1]
    bar = "#" * int(round(50 * count / hist.n))
    print(f"  ({lo:>5.2f}, {hi:>5.2f}] {count:>4} {bar}")

# ------------------------------------------------------------------
# Plug the measured margin loss into the bounds at a threshold the
# ensemble mostly clears.
# ------------------------------------------------------------------
theta = 0.3
loss = empirical_margin_loss(f, H, S, theta)
true = true_margin_loss(f, H, D, 0.0)
print(f"\nempirical margin loss at theta={theta}: {loss:.4f}")
print(f"true error of the vote: {true:.4f}")

inputs = BoundInputs(n=len(S), H_size=len(H), theta=theta, delta=0.05, loss=loss)
reports = all_reports(inputs)
print(f"{'bound':<12} {'value':>10}")
for name in ("sfbl98", "gz13", "theorem1"):
    report = reports[name]
    value = f"{report.value:>10.5f}" if not isinstance(report, str) else "   (n/a)"
    print(f"{name:<12} {value}")
print("(the true error sits far below every bound, as it should)")
