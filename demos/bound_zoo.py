"""
A zoo of voting-classifier generalization bounds
================================================

Four upper bounds and one lower bound on the true error of a voting
classifier, all driven by the same inputs: sample size n, class size |H|,
margin threshold theta, confidence delta, and the empirical margin loss.
The sharper bound replaces a log(n) complexity factor with
log(theta^2 n / ln|H|) and couples the loss term to log(e/loss); this
script compares the breakdowns, then shows the dyadic partition and the
failure-probability allocation that a uniform-over-cells argument uses.
"""

import numpy as np

from votemargin.bounds import (
    BOUND_NAMES,
    BoundInputs,
    all_reports,
    build_partition,
    choose_N_main,
    delta_allocation,
)

# ------------------------------------------------------------------
# One instance, all bounds.  The report splits each bound into its loss
# offset, sqrt deviation, log complexity, and confidence terms.
# ------------------------------------------------------------------
inputs = BoundInputs(n=5000, H_size=16, theta=0.3, delta=0.05, loss=0.12, c=1.0)
reports = all_reports(inputs, tau=0.12)

print(f"n={inputs.n}, |H|={inputs.H_size}, theta={inputs.theta}, "
      f"delta={inputs.delta}, loss={inputs.loss}")
print(f"admissible theta floor: {inputs.theta_floor:.4f}\n")
print(f"{'bound':<12} {'value':>10} {'sqrt':>10} {'log':>10} {'delta':>10} {'dominates':>10}")
for name in BOUND_NAMES:
    report = reports[name]
    if isinstance(report, str):
        print(f"{name:<12} (inapplicable: {report})")
        continue
    print(f"{name:<12} {report.value:>10.5f} {report.sqrt_term:>10.5f} "
          f"{report.log_term:>10.5f} {report.delta_term:>10.5f} {report.dominating:>10}")

# ------------------------------------------------------------------
# How the sharper bound scales with n: its deviation shrinks strictly
# faster than the log(n)-based one, and the ratio drifts downward.
# ------------------------------------------------------------------
print("\ndeviation ratio (sharper / log-n) as n grows, at loss 0.2:")
for n in (500, 2000, 8000, 32000):
    scaled = BoundInputs(n=n, H_size=16, theta=0.6, delta=0.05, loss=0.2, c=1.0)
    r = all_reports(scaled, tau=None)
    ratio = r["theorem1"].deviation / r["gz13"].deviation
    print(f"  n = {n:>6}: {ratio:.4f}")

# ------------------------------------------------------------------
# The dyadic partition behind the uniform argument: margin cells double
# from just under the floor up to 1, loss cells double from 1/n up to 1.
# ------------------------------------------------------------------
scheme = build_partition(n=5000, H_size=16)
print(f"\npartition at n=5000, |H|=16 ({len(scheme.theta_cells)} margin cells, "
      f"{len(scheme.loss_cells)} loss cells):")
for cell in scheme.theta_cells[:4]:
    print(f"  margin cell {cell.index}: ({cell.lo:.4f}, {cell.hi:.4f}]")
print("  ...")

# Each cell pair gets its own slice of the failure budget; both family
# sums stay within delta/2.
alloc = delta_allocation(0.05, scheme)
print(f"pair-budget sum: {alloc.pair_sum:.3e} <= {0.025}")
print(f"cell-budget sum: {alloc.cell_sum:.3e} <= {0.025}")

# The discretization size the argument needs for a given cell:
cell = scheme.theta_cells[2]
loss_cell = scheme.loss_cells[3]
N = choose_N_main(cell.hi_dyadic, loss_cell.hi, c=1.0)
print(f"\nchosen N for margin cell {cell.index} x loss cell {loss_cell.index}: {N}")
