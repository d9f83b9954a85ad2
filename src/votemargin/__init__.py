"""votemargin: margin-based generalization bounds for voting classifiers.

Exact finite-class machinery for majority-vote margins: the binomial margin
law of sampled discretizations, the piecewise-linear envelope functions that
replace loss indicators, a family of margin bounds sharing one interface,
Rademacher-complexity estimators, AdaBoost over explicit hypothesis tables,
and a reproducible validation harness.

Names are imported from the submodules (``votemargin.bounds``,
``votemargin.discretize``, ...); the package itself exports ``__version__``
only.
"""

__version__ = "0.1.0"
