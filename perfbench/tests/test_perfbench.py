"""The benchmark's own checks: names, inputs, tracing transparency, the gate.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import tracing
import workloads

ROOT = Path(run.__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    for name in [*run.END_TO_END, *run.PER_LAYER, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    for layer_metric, targets in predictions["per_layer"].items():
        assert layer_metric in run.PER_LAYER, layer_metric
        for metric, workload in targets:
            assert metric in run.END_TO_END and workload in workloads.WORKLOADS


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    first = workloads.inputs(workload, 7)
    np.random.default_rng().random()  # global state must not matter
    assert first == workloads.inputs(workload, 7)
    assert workloads.inputs(workload, 8) != first
    for name, kind, _, keys in first:
        text = workloads.render(kind, keys, "out")
        assert text == workloads.render(kind, keys, "out")
        assert text.startswith(f"[{kind}]\n")


def test_term_counters_follow_the_summed_side():
    # N=10, η=0: k* = 6; the exact tail sums the upper side k=6..10.
    assert tracing._k_star(10, 0.0) == 6
    assert tracing._exact_terms(10, 0.3, 0.0) == 5
    # η=-0.5: k* = 3; the lower side k=0..2 is smaller.
    assert tracing._exact_terms(10, 0.3, -0.5) == 3
    assert tracing._exact_terms(10, 1.0, 0.0) == 0
    assert tracing._exact_terms(10, 0.3, 1.0) == 0
    # batch: λ=0.5 gives pN = 7.5 >= 6, so the lower side (6 terms);
    # λ=-0.5 gives pN = 2.5 < 6, so the upper side (5 terms); ±1 sum nothing.
    assert tracing._batch_terms(10, [0.5, -0.5, 1.0, -1.0], 0.0) == 11


def _fraction_tail(N: int, lam: float, eta: float) -> float:
    """Independent oracle: Pr[Binom(N, (1+λ)/2) ≥ k*(η)] in exact rationals."""
    p = (1 + Fraction(lam)) / 2
    ks = tracing._k_star(N, eta)
    total = sum(
        math.comb(N, k) * p**k * (1 - p) ** (N - k) for k in range(max(ks, 0), N + 1)
    )
    return float(Fraction(total))


def test_reference_values_are_the_correctly_rounded_tails():
    checked = 0
    for N, lam, eta, ref in gate.load_probes():
        if N <= 128:
            assert _fraction_tail(N, lam, eta).hex() == ref.hex(), (N, lam, eta)
            checked += 1
    assert checked >= 200


def test_gate_passes_on_this_tree(tmp_path):
    results = gate.run(tmp_path)
    assert [r["check"] for r in results] == [
        "tail-exact-bitwise", "tail-batch-agrees", "locked-constants",
    ]
    assert all(r["ok"] for r in results), results


def test_one_ulp_change_to_the_exact_tail_makes_failures(tmp_path, monkeypatch):
    from votemargin import discretize

    exact = discretize.binom_margin_tail

    def off_by_one_ulp(N, lam, eta):
        return float(np.nextafter(exact(N, lam, eta), np.inf))

    monkeypatch.setattr(discretize, "binom_margin_tail", off_by_one_ulp)
    result = run.execute("small-suites-experiments", 3, 0.0, False, tmp_path)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    failed_checks = {c["check"] for c in result["gate"] if not c["ok"]}
    assert "tail-exact-bitwise" in failed_checks


def test_traced_and_untraced_passes_write_identical_csvs(tmp_path):
    plain = run.run_pass("small-suites-experiments", 11, 0, tmp_path)
    with tracing.Tracer() as tracer:
        spanned = run.run_pass("small-suites-experiments", 11, 0, tmp_path, tracer)
    assert plain["digests"] and plain["digests"] == spanned["digests"]
    assert all(v is True for v in plain["verdicts"].values())
    assert all(v is True for v in spanned["verdicts"].values())
    assert tracer.spans and not tracer.missing
    times = tracer.layer_times()
    assert math.isclose(
        tracing.accounted(times), times[tracing.OP_LAYER][0], rel_tol=1e-9
    )


def test_tracer_restores_every_rebound_name():
    from votemargin import core, discretize, phirho

    before = (discretize.binom_margin_tail, phirho.binom_margin_tail,
              vars(core.HypothesisClass)["__init__"])
    with tracing.Tracer() as tracer:
        assert phirho.binom_margin_tail is not before[1]
        phirho.PhiRhoParams(0.3, 100).tail(0.1)
    after = (discretize.binom_margin_tail, phirho.binom_margin_tail,
             vars(core.HypothesisClass)["__init__"])
    assert after == before
    assert tracer.counts["discretize.tail_exact.calls"] == 1
    assert tracer.counts["discretize.tail_exact.terms"] == tracing._exact_terms(100, 0.1, 0.15)
