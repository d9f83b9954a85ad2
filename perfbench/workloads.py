"""Workload inputs: every operation's config section, as a function of the seed.

A workload is a fixed list of operations, run back to back by one
closed-loop client; one run of the list is a pass.  Every pass of a run
repeats the same inputs, drawn from the workload seed alone, so the pass
times of a run differ only by measurement noise.  The ``out`` key is added
when a pass is run.
"""

from __future__ import annotations

SURROGATE_SUITES = ("lipschitz", "phi-rho-ineq", "phi-bound")
#: The other validate suites, less margin-law: its 5-sigma normal band fails
#: on rare-event grid points (one Monte Carlo hit where the exact tail is
#: ~1e-6), at about 3% of seeds (28, 48, 81, 155, 172, ... in 0..299).
SMALL_SUITES = (
    "monotonicity",
    "decomposition",
    "delta-allocation",
    "partition-coverage",
    "massart",
    "convexity-collapse",
    "half-margin-expectation",
)
#: Random (theta_i, N) pairs per seeded surrogate suite.  The cost of a pair
#: grows about as N^2 and N as theta_i^-2, so at the default 50 pairs the
#: pass time varies ~20% (interquartile) from seed to seed; at 5 it is
#: dominated by lipschitz, which is seed-independent.
SURROGATE_TRIALS = 5
#: Consecutive validate seeds of the short suites in one pass.
SMALL_SEEDS_PER_PASS = 5

#: The README instance.  More trials narrow the binomial interval until ties
#: in the calibrated statistic push the failure count out of it: at 5000
#: trials half-margin fails at seed 20.  within-const is left out because it
#: fails that way at every trial count tried (500: seed 57; 5000: ~25% of
#: seeds).
HALF_MARGIN = {
    "n": 200, "h_size": 8, "x_size": 32, "trials": 500,
    "delta": 0.1, "theta": 0.35, "probes": 100,
}
GAP_VS_BOUNDS = {"t": 400, "n_grid": "200, 800, 3200, 12800"}
ADABOOST = {"d": 4, "k": 15, "n": 20000, "t": 400}

#: Two workloads, so that each run can be long: the host this benchmark was
#: tuned on slows a process by up to 2x for tens of seconds at a time, and
#: only a long window reliably holds a fast pass.  The short validate suites
#: and the experiments share one workload; both bypass the exact scalar tail.
WORKLOADS = {
    "surrogate-suites": (
        "validate lipschitz, phi-rho-ineq and phi-bound (5 trials): exact scalar "
        "and vectorized binomial tails at N up to 12800, driven by phirho"
    ),
    "small-suites-experiments": (
        "seven short validate suites over 5 seeds, then half-margin, gap-vs-bounds "
        "and adaboost (n=20000, T=400): small tail calls, Rademacher, boosting, "
        "core, bounds"
    ),
}

#: (warm-up passes, passes) of a traced run.  After the untimed warm-up it
#: runs the passes untraced and then traced; the numbers are fixed so that the
#: per-layer counts are a function of the seed alone.  A surrogate-suites
#: pass is long enough that its first-pass cost is noise, so it has none.
TRACE_PASSES = {"surrogate-suites": (0, 1), "small-suites-experiments": (1, 2)}

#: Input sizes, recorded with every result.
INPUT_SIZES = {
    "surrogate-suites": {
        "suites": list(SURROGATE_SUITES),
        "config": f"validate, trials = {SURROGATE_TRIALS}: phi-rho-ineq "
                  f"{SURROGATE_TRIALS} pairs x 2001 points, phi-bound "
                  f"{SURROGATE_TRIALS} pairs x 10001 points, lipschitz (default) "
                  "15 pairs x 3 regions x 10000 points",
    },
    "small-suites-experiments": {
        "suites": list(SMALL_SUITES),
        "seeds_per_pass": SMALL_SEEDS_PER_PASS,
        "config": "validate defaults",
        "half-margin": HALF_MARGIN,
        "gap-vs-bounds": GAP_VS_BOUNDS,
        "adaboost": ADABOOST,
    },
}


def inputs(workload: str, seed: int) -> list:
    """Operations of one pass: a list of (op name, section kind, lemma, keys)."""
    if workload == "surrogate-suites":
        keys = {"seed": seed, "trials": SURROGATE_TRIALS}
        return [(suite, "validate", suite, keys) for suite in SURROGATE_SUITES]
    if workload == "small-suites-experiments":
        suites = [
            (f"{suite}@{s}", "validate", suite, {"seed": s})
            for s in range(seed, seed + SMALL_SEEDS_PER_PASS)
            for suite in SMALL_SUITES
        ]
        return suites + [
            ("half-margin", "half-margin", None, {"seed": seed, **HALF_MARGIN}),
            ("gap-vs-bounds", "gap-vs-bounds", None, {"seed": seed, **GAP_VS_BOUNDS}),
            ("adaboost", "adaboost", None, {"seed": seed, **ADABOOST}),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")


def render(kind: str, keys: dict, out: str) -> str:
    """INI text of one config section."""
    lines = [f"[{kind}]"] + [f"{k} = {v}" for k, v in keys.items()]
    lines.append(f"out = {out}")
    return "\n".join(lines) + "\n"
