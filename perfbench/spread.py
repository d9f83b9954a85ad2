"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload small-suites-experiments --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another, and prints per
metric the median and the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``).  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  Each run's result line is kept in
``.perfbench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument(
        "--seconds",
        default=str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]),
    )
    args = parser.parse_args(argv)

    log = ROOT / ".perfbench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    results = []
    with open(log, "w") as fh:
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
            fh.flush()
            results.append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    if len(results) < 2:
        return 0
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        print(f"{name}: median {statistics.median(values):.6g}, "
              f"IQR/median {spread(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
