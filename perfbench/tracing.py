"""Opt-in layer tracing for the benchmark, installed from outside the package.

A traced run rebinds each layer's public entry points at every import site
inside the loaded ``votemargin`` modules (and patches the two constructor
classes of ``core``), so a call made anywhere in the package opens a span.
Spans are (name, start, end, parent, operation id) rows kept in memory; the
benchmark writes them out when the run ends.  Counters are computed from call
arguments and results, never from timing, so they repeat exactly.

The run is one process with no queue between layers, so no layer has a wait
time: only busy and self time are derived.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

_clock = time.perf_counter


def _k_star(N: int, eta: float) -> int:
    """The count threshold k*(η) = floor((η/2 + 1/2)·N) + 1, exactly."""
    return int((Fraction(float(eta)) + 1) * int(N) // 2) + 1


def _exact_terms(N, lam, eta) -> int:
    """Atoms the exact scalar tail sums: the smaller side of k*(η)."""
    N = int(N)
    ks = _k_star(N, eta)
    m, d = float(lam).as_integer_ratio()
    if ks > N or d + m == 0 or d - m == 0:
        return 0
    return ks if ks - 1 <= N - ks else N - ks + 1


def _batch_terms(N, lams, eta) -> int:
    """Atoms the batch tail sums: per interior λ, the side chosen by k* ≤ pN."""
    N = int(N)
    ks = _k_star(N, eta)
    if ks > N:
        return 0
    flat = np.asarray(lams, dtype=np.float64).ravel()
    p = 0.5 + 0.5 * flat
    q = 0.5 - 0.5 * flat
    interior = (p > 0.0) & (q > 0.0)
    lower = int(np.count_nonzero(interior & (ks <= p * N)))
    upper = int(np.count_nonzero(interior)) - lower
    return lower * ks + upper * (N + 1 - ks)


def _count_exact(counts, bound, result):
    a = bound.arguments
    counts["discretize.tail_exact.terms"] += _exact_terms(a["N"], a["lam"], a["eta"])


def _count_batch(counts, bound, result):
    a = bound.arguments
    counts["discretize.tail_batch.lambdas"] += int(np.size(a["lams"]))
    counts["discretize.tail_batch.terms"] += _batch_terms(a["N"], a["lams"], a["eta"])


def _count_many(counts, bound, result):
    counts["phirho.many.points"] += int(np.size(bound.arguments["lams"]))


def _count_exhaustive(counts, bound, result):
    counts["rademacher.exhaustive.sign_vectors"] += 2 ** len(bound.arguments["S"])


def _count_adaboost(counts, bound, result):
    counts["boosting.adaboost.rounds"] += len(result.rounds)


def _count_io(counts, bound, result):
    counts["harness.io.bytes"] += os.path.getsize(result)


# (module, attribute, layer, counter).  Each attribute is rebound wherever the
# same function object is bound in a loaded votemargin module.
FUNCTION_ENTRY_POINTS = (
    ("votemargin.discretize", "binom_margin_tail", "discretize.tail_exact", _count_exact),
    ("votemargin.discretize", "binom_margin_tail_batch", "discretize.tail_batch", _count_batch),
    ("votemargin.phirho", "phi_many", "phirho.many", _count_many),
    ("votemargin.phirho", "rho_many", "phirho.many", _count_many),
    ("votemargin.rademacher", "exhaustive_rademacher", "rademacher.exhaustive", _count_exhaustive),
    ("votemargin.rademacher", "convexity_collapse_check", "rademacher.collapse", None),
    ("votemargin.boosting", "adaboost", "boosting.adaboost", _count_adaboost),
    ("votemargin.boosting", "build_stump_class", "boosting.setup", None),
    ("votemargin.boosting", "generate_synthetic", "boosting.setup", None),
    ("votemargin.bounds", "sfbl98_report", "bounds.reports", None),
    ("votemargin.bounds", "breiman_report", "bounds.reports", None),
    ("votemargin.bounds", "gz13_report", "bounds.reports", None),
    ("votemargin.bounds", "theorem1_report", "bounds.reports", None),
    ("votemargin.bounds", "gkl20_lower_report", "bounds.reports", None),
    ("votemargin.bounds", "all_reports", "bounds.reports", None),
    ("votemargin.bounds", "build_partition", "bounds.partition", None),
    ("votemargin.bounds", "delta_allocation", "bounds.partition", None),
    ("votemargin.harness.checks", "smallest_c_monotone", "harness.calibrate", None),
    ("votemargin.harness.reporting", "write_csv", "harness.io", _count_io),
    ("votemargin.harness.reporting", "write_summary", "harness.io", _count_io),
)

# (module, class, method, layer): construction and sampling of core objects.
METHOD_ENTRY_POINTS = (
    ("votemargin.core", "HypothesisClass", "__init__", "core.build"),
    ("votemargin.core", "DataDistribution", "__init__", "core.build"),
    ("votemargin.core", "DataDistribution", "sample", "core.build"),
)

OP_LAYER = "harness.op"

#: Every layer a span can carry, in declaration order.
LAYERS = tuple(dict.fromkeys(
    [OP_LAYER]
    + [entry[2] for entry in FUNCTION_ENTRY_POINTS]
    + [entry[3] for entry in METHOD_ENTRY_POINTS]
))


class Tracer:
    """Span recorder plus the rebinding that feeds it.

    Use as a context manager: entering installs the wrappers, leaving
    restores every rebound name.  A call into a layer that already has an
    open span (a layer re-entering itself) records no second span and is
    not counted again.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._open = defaultdict(int)
        self._op = None
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _push(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _pop(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()
        self._open[self.spans[index][0]] -= 1

    def op(self, op_id: str, fn, *args):
        """Run one workload operation under a root span."""
        self._op = op_id
        index = self._push(OP_LAYER)
        try:
            return fn(*args)
        finally:
            self._pop(index)
            self._op = None

    def _wrap(self, layer: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[layer]:
                return fn(*args, **kwargs)
            index = tracer._push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(index)
            tracer.counts[layer + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, signature.bind(*args, **kwargs), result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "votemargin" or name.startswith("votemargin."))
        ]
        for module_name, attr, layer, counter in FUNCTION_ENTRY_POINTS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))
        for module_name, cls_name, attr, layer in METHOD_ENTRY_POINTS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrap(layer, original))
            self._restore.append((cls, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    # -- derived metrics ----------------------------------------------------

    def layer_times(self) -> dict:
        """{layer: (busy_s, self_s)} from the recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - covered[i]
        return {name: (busy[name], own[name]) for name in busy}

    def span_rows(self) -> list:
        """Spans as dicts, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def accounted(layer_times: dict) -> float:
    """Sum of every layer's self time: the span-covered share of a run."""
    return math.fsum(own for _, own in layer_times.values())
