"""Correctness gate run with every workload, through the public API only.

Three checks, each counted as one operation of the run:

* ``tail-exact-bitwise``: the exact scalar tail reproduces, bit for bit, the
  values recorded in ``tail_reference.json``.
* ``tail-batch-agrees``: the batch tail at the same probes is within 2e-12
  absolute of the exact tail, the tolerance the unit tests apply.
* ``locked-constants``: the half-margin and within-const experiments at seed
  42 (n=200, |H|=8, |X|=32, 500 trials) calibrate the regression-locked
  constants to rel 1e-9.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("tail_reference.json")
BATCH_TOLERANCE = 2e-12
LOCKED_CONSTANTS = {
    "half-margin": 0.005681385512477127,
    "within-const": 0.061821738736705704,
}
LOCK_RELATIVE = 1e-9
LOCK_CONFIG = {
    "seed": 42, "n": 200, "h_size": 8, "x_size": 32,
    "trials": 500, "delta": 0.1, "theta": 0.35, "probes": 100,
}


def load_probes() -> list:
    """[(N, λ, η, reference tail)] with the floats decoded from hex."""
    rows = json.loads(REFERENCE.read_text())["probes"]
    return [
        (int(N), float.fromhex(lam), float.fromhex(eta), float.fromhex(tail))
        for N, lam, eta, tail in rows
    ]


def check_exact(discretize, probes) -> tuple:
    """(ok, detail, exact values) for the bitwise scalar-tail check."""
    values = [discretize.binom_margin_tail(N, lam, eta) for N, lam, eta, _ in probes]
    wrong = [
        (N, lam, eta, got, ref)
        for (N, lam, eta, ref), got in zip(probes, values)
        if float(got).hex() != ref.hex()
    ]
    detail = f"{len(wrong)} of {len(probes)} probes differ from the reference"
    if wrong:
        detail += f"; first: {wrong[0]}"
    return not wrong, detail, values


def check_batch(discretize, probes, exact) -> tuple:
    """(ok, detail) for the batch tail against the exact values, per (N, η)."""
    groups = defaultdict(list)
    for i, (N, _, eta, _) in enumerate(probes):
        groups[(N, eta)].append(i)
    worst = 0.0
    for (N, eta), idx in groups.items():
        lams = np.array([probes[i][1] for i in idx])
        batch = discretize.binom_margin_tail_batch(N, lams, eta)
        worst = max(worst, float(np.max(np.abs(batch - np.array([exact[i] for i in idx])))))
    ok = worst <= BATCH_TOLERANCE
    return ok, f"max |batch - exact| = {worst!r} (tolerance {BATCH_TOLERANCE})"


def check_constants(out_dir: Path) -> tuple:
    """(ok, detail) for the two regression-locked calibrated constants."""
    from votemargin.harness import config as config_mod
    from votemargin.harness import experiments, reporting

    for kind in LOCKED_CONSTANTS:
        text = "\n".join(
            [f"[{kind}]"] + [f"{k} = {v}" for k, v in LOCK_CONFIG.items()]
            + [f"out = {out_dir}"]
        )
        experiments.concentration_experiment(config_mod.parse_config_text(text))
    got = reporting.read_constants_csv(out_dir / experiments.CONSTANTS_FILENAME)
    bad = {
        kind: got.get(kind)
        for kind, locked in LOCKED_CONSTANTS.items()
        if got.get(kind) is None
        or not math.isclose(got[kind], locked, rel_tol=LOCK_RELATIVE, abs_tol=0.0)
    }
    detail = ", ".join(f"{k}={got.get(k)!r}" for k in LOCKED_CONSTANTS)
    return not bad, detail


def _guarded(fn, *args) -> tuple:
    """fn(*args), with a crash turned into a failed check."""
    try:
        return fn(*args)
    except Exception as exc:  # any crash fails the check; its text is kept
        return False, f"{type(exc).__name__}: {exc}", None


def run(out_dir: Path) -> list:
    """Run every check; return [{"check", "ok", "detail"}]."""
    from votemargin import discretize

    probes = load_probes()
    ok, detail, exact = _guarded(check_exact, discretize, probes)
    results = [{"check": "tail-exact-bitwise", "ok": ok, "detail": detail}]
    if exact is None:
        ok, detail = False, "no exact values to compare against"
    else:
        ok, detail, *_ = _guarded(check_batch, discretize, probes, exact)
    results.append({"check": "tail-batch-agrees", "ok": ok, "detail": detail})
    out_dir.mkdir(parents=True, exist_ok=True)
    ok, detail, *_ = _guarded(check_constants, out_dir)
    results.append({"check": "locked-constants", "ok": ok, "detail": detail})
    return results
