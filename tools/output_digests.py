"""Digests of the deterministic outputs of one votemargin checkout.

Usage:

    python3 tools/output_digests.py CHECKOUT SEED [SEED ...]

Against the package in ``CHECKOUT/src`` it runs

* every operation of both benchmark workloads at each seed, with the inputs
  of ``CHECKOUT/perfbench/workloads.py`` (``inputs`` and ``render``);
* ``validate margin-law``, the one suite no workload runs, at
  ``MARGIN_LAW_TRIALS`` trials at each seed;
* the half-margin and within-const runs at seed 42 whose calibrated
  constants the correctness gate locks;
* the five demos;
* a fixed list of ``bounds eval`` and ``bounds grid`` calls, error cases
  included;

and prints one ``sha256  name`` line per artifact: every file a run writes,
and the exit status with stdout and stderr of every call.  Output directories
are replaced by ``<out>`` before hashing, so the lines of two checkouts can be
compared with ``diff``.  Everything is written to a temporary directory;
nothing under the checkout changes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEMOS = (
    "bound_zoo.py",
    "boosting_margins.py",
    "margin_law_tour.py",
    "rademacher_playground.py",
    "surrogate_functions.py",
)

#: The configuration of the seed-42 runs whose constants the gate locks.
LOCKED_RUN = {
    "seed": 42, "n": 200, "h_size": 8, "x_size": 32,
    "trials": 500, "delta": 0.1, "theta": 0.35, "probes": 100,
}

_EVAL = ["bounds", "eval", "--n", "5000", "--h-size", "16", "--theta", "0.3",
         "--delta", "0.05", "--loss", "0.12"]
_GRID = ["bounds", "grid", "--n", "5000", "--h-size", "16", "--theta", "0.3",
         "--delta", "0.05", "--loss", "0.12", "--tau", "0.05"]

#: Trials of the ``margin-law`` runs: 2000 draws of N hypotheses per (N, λ).
MARGIN_LAW_TRIALS = 2000

#: (name, argv) of the ``bounds`` calls; ``{out}`` is an output directory.
BOUNDS_CALLS = (
    ("eval", _EVAL),
    ("eval-tau", _EVAL + ["--tau", "0.12"]),
    ("eval-c", _EVAL + ["--c", "0.5", "--tau", "0.3"]),
    ("eval-small-n", ["bounds", "eval", "--n", "10", "--h-size", "16", "--theta", "0.3",
                      "--delta", "0.05", "--loss", "0.12", "--tau", "0.01"]),
    ("eval-below-floor", ["bounds", "eval", "--n", "100", "--h-size", "16", "--theta",
                          "0.2", "--delta", "0.05", "--loss", "0.0"]),
    ("eval-nan-c", _EVAL + ["--c=nan"]),
    ("eval-tiny-theta", ["bounds", "eval", "--n", "1000", "--h-size", "100", "--theta",
                         "1e-300", "--delta", "0.05", "--loss", "0.1"]),
    ("eval-bad-delta", _EVAL[:-4] + ["--delta", "1.5", "--loss", "0.12"]),
    ("grid-n", _GRID + ["--sweep", "n", "--values", "200, 800,3200,,12800"]),
    ("grid-h-size", _GRID + ["--sweep", "h-size", "--values", "2,16,1024"]),
    ("grid-theta", _GRID + ["--sweep", "theta", "--values", "0.05,0.3,0.9,1"]),
    ("grid-delta", _GRID + ["--sweep", "delta", "--values", "0.01,0.5"]),
    ("grid-loss", _GRID + ["--sweep", "loss", "--values", "0,0.1,0.5"]),
    ("grid-c", _GRID + ["--sweep", "c", "--values", "0.5,1,32"]),
    ("grid-tau", _GRID + ["--sweep", "tau", "--values", "0.01,0.1,0.5"]),
    ("grid-out", _GRID + ["--sweep", "theta", "--values", "0.3,0.6",
                          "--out", "{out}/grid.csv"]),
    ("grid-empty", _GRID + ["--sweep", "theta", "--values", " , "]),
    ("grid-not-int", _GRID + ["--sweep", "n", "--values", "200,1.5"]),
    ("grid-not-float", _GRID + ["--sweep", "loss", "--values", "0.1,abc"]),
    ("grid-bad-value", _GRID + ["--sweep", "n", "--values", "0"]),
    ("grid-missing", ["bounds", "grid", "--sweep", "n", "--values", "100"]),
    ("grid-out-nested", _GRID + ["--sweep", "n", "--values", "100",
                                 "--out", "{out}/nested/grid.csv"]),
    ("grid-out-is-dir", _GRID + ["--sweep", "n", "--values", "100", "--out", "{out}"]),
)


class Digests:
    """Collects (name, sha256) lines, with one directory replaced by ``<out>``."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.lines = []

    def add(self, name: str, data: bytes) -> None:
        data = data.replace(self.root.encode(), b"<out>")
        self.lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")

    def add_files(self, name: str, directory: Path) -> None:
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            self.add(f"{name}/{path.relative_to(directory)}", path.read_bytes())


def _call(main, argv) -> bytes:
    """Exit status, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}".encode()


def _run_config(main, digests: Digests, name: str, lemma, text: str, out_dir: Path) -> None:
    """Run one config section through the CLI (``validate lemma`` when a lemma
    is given, else ``experiment run``); digest the call and the files it wrote."""
    out_dir.mkdir(parents=True)
    path = out_dir.with_suffix(".ini")
    path.write_text(text)
    if lemma is None:
        argv = ["experiment", "run", str(path)]
    else:
        argv = ["validate", lemma, "--config", str(path)]
    digests.add(f"{name}/call", _call(main, argv))
    digests.add_files(name, out_dir)


def workload_outputs(main, workloads, digests: Digests, root: Path, seeds) -> None:
    for workload in sorted(workloads.WORKLOADS):
        for seed in seeds:
            for i, (op, kind, lemma, keys) in enumerate(workloads.inputs(workload, seed)):
                name = f"{workload}@{seed}/{i:02d}-{op}"
                out_dir = root / name
                text = workloads.render(kind, keys, str(out_dir))
                _run_config(main, digests, name, lemma, text, out_dir)


def margin_law_outputs(main, workloads, digests: Digests, root: Path, seeds) -> None:
    for seed in seeds:
        name = f"margin-law@{seed}"
        out_dir = root / name
        keys = {"seed": seed, "trials": MARGIN_LAW_TRIALS}
        text = workloads.render("validate", keys, str(out_dir))
        _run_config(main, digests, name, "margin-law", text, out_dir)


def locked_outputs(main, digests: Digests, root: Path) -> None:
    for kind in ("half-margin", "within-const"):
        name = f"locked/{kind}"
        out_dir = root / name
        lines = [f"[{kind}]"] + [f"{k} = {v}" for k, v in LOCKED_RUN.items()]
        lines.append(f"out = {out_dir}")
        _run_config(main, digests, name, None, "\n".join(lines) + "\n", out_dir)


def demo_outputs(checkout: Path, digests: Digests) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p
    )
    for demo in DEMOS:
        result = subprocess.run(
            [sys.executable, str(checkout / "demos" / demo)],
            cwd=checkout, env=env, capture_output=True, timeout=600,
        )
        digests.add(
            f"demo/{demo}",
            b"exit %d\n--stdout\n%s--stderr\n%s" % (result.returncode, result.stdout, result.stderr),
        )


def bounds_outputs(main, digests: Digests, root: Path) -> None:
    out_dir = root / "bounds"
    out_dir.mkdir()
    for name, argv in BOUNDS_CALLS:
        digests.add(f"bounds/{name}", _call(main, [a.format(out=out_dir) for a in argv]))
    digests.add_files("bounds", out_dir)


def _import_checkout(checkout: Path):
    """(cli.main, workloads) imported from the checkout's own source."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import votemargin.cli
    import workloads

    for module in (votemargin.cli, workloads):
        if checkout not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"error: {module.__name__} imported from {module.__file__}")
    return votemargin.cli.main, workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of a source checkout")
    parser.add_argument("seeds", type=int, nargs="+", help="workload seeds")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    cli_main, workloads = _import_checkout(checkout)
    with tempfile.TemporaryDirectory(prefix="votemargin-digests-") as tmp:
        root = Path(tmp)
        digests = Digests(root)
        workload_outputs(cli_main, workloads, digests, root, args.seeds)
        margin_law_outputs(cli_main, workloads, digests, root, args.seeds)
        locked_outputs(cli_main, digests, root)
        demo_outputs(checkout, digests)
        bounds_outputs(cli_main, digests, root)
    print("\n".join(digests.lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
