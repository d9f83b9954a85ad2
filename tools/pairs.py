"""Alternating parent/change benchmark pairs, judged as a claimed gain is.

Usage:

    python3 tools/pairs.py PARENT CHANGE WORKLOAD PAIRS SECONDS FIRST_SEED

Runs ``perfbench/run.py --workload WORKLOAD --seed S --seconds SECONDS
--trace 0`` from each checkout, PAIRS times.  Pair i runs both sides at seed
FIRST_SEED + i, the parent first when i is even and the change first when it
is odd, so a slow spell of the host falls on either side alike.  For each
end-to-end metric of ``PARENT/BENCHMARK.json`` it prints both sides'
quartiles and median, the pairs the change wins (a tie counts for neither),
and two verdicts:

* ``gain``: the change wins at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's interquartile distance
  (quartiles by ``statistics.quantiles(values, n=4)``, as in
  ``perfbench/spread.py``);
* ``within bound``: the change's median is no worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``, a share of the
  parent's median.

The last line is the JSON of every run's metrics and the verdicts.  The
script only reads the checkouts; each run writes the record it always writes
under the checkout's ``.perfbench_out/``.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: A gain needs the change to win this share of all pairs run.
WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile) by ``statistics.quantiles``'
    default (exclusive) method, the one ``perfbench/spread.py`` uses, so a
    gain is judged against the same spread there and here."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(parent, change, better: str) -> int:
    """Pairs in which the change is strictly better; a tie counts for neither."""
    sign = 1 if better == "lower" else -1
    return sum(1 for p, c in zip(parent, change, strict=True) if sign * (p - c) > 0)


def judge(parent, change, better: str, bound: float) -> dict:
    """Both sides' quartiles, the change's wins, and the two verdicts."""
    p_q, c_q = quartiles(parent), quartiles(change)
    won = wins(parent, change, better)
    iqr = p_q[2] - p_q[0]
    gain_by = (p_q[1] - c_q[1]) if better == "lower" else (c_q[1] - p_q[1])
    worse_by = -gain_by / abs(p_q[1]) if p_q[1] else (0.0 if gain_by >= 0 else math.inf)
    return {
        "parent": p_q,
        "change": c_q,
        "wins": won,
        "pairs": len(parent),
        "parent_iqr": iqr,
        "gain": won >= math.ceil(WIN_SHARE * len(parent)) and gain_by > iqr,
        "within_bound": worse_by <= bound,
    }


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of a checkout: its metrics, as {name: value}.  The
    run is ``perfbench/spread.py``'s; that loop is inline in its ``main`` and
    runs one checkout only, so it is not called from here."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: the run at seed {seed} failed {result['failed']} checks")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv) -> int:
    if len(argv) != 6:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, pairs, seconds, first_seed = argv[2], int(argv[3]), float(argv[4]), int(argv[5])
    metrics = json.loads((parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(run_side(checkout, workload, first_seed + i, seconds))
        print(f"pair {i + 1}/{pairs} at seed {first_seed + i}: " + ", ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> {runs['change'][-1][m['name']]:.4g}"
            for m in metrics), flush=True)
    verdicts = {}
    print(f"{'metric':12s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s} "
          f"{'wins':>6s}  gain  within bound")
    for m in metrics:
        name = m["name"]
        v = judge([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                  m["better"], m["bound"])
        verdicts[name] = v
        print(f"{name:12s} {'/'.join(f'{x:.4g}' for x in v['parent']):>30s} "
              f"{'/'.join(f'{x:.4g}' for x in v['change']):>30s} "
              f"{v['wins']:>3d}/{v['pairs']:<2d}  {'yes' if v['gain'] else 'no ':4s}  "
              f"{'yes' if v['within_bound'] else 'NO'}")
    print(json.dumps({"workload": workload, "seconds": seconds, "first_seed": first_seed,
                      "runs": runs, "verdicts": verdicts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
