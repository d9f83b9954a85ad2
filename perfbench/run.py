"""votemargin benchmark: one workload, one seed, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload surrogate-suites --seed 1 --seconds 55 --trace 0

The run imports the package from ``src/`` of the checkout, runs the
correctness gate, and then runs passes of the workload back to back (one
closed-loop client) for about ``--seconds``, timing set-up in fresh
interpreters between passes; a pass is never cut short.  With ``--trace 0``
it reports the end-to-end metrics (time and CPU of the fastest pass, median
set-up), with ``--trace 1`` the per-layer metrics of a fixed set of passes
run once untraced and once traced.  The last line of standard output
is the JSON result; the full record (provenance, every pass, CSV digests,
spans) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYERS, Tracer, accounted  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh-interpreter set-ups per run, spread over the measured window so that
#: a slow spell of the host does not take them all; the median is reported.
SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}

PER_LAYER = {
    "discretize.tail_exact.calls": "count",
    "discretize.tail_exact.terms": "count",
    "discretize.tail_exact.busy_s": "s",
    "discretize.tail_batch.calls": "count",
    "discretize.tail_batch.lambdas": "count",
    "discretize.tail_batch.terms": "count",
    "discretize.tail_batch.busy_s": "s",
    "phirho.many.calls": "count",
    "phirho.many.points": "count",
    "phirho.many.self_s": "s",
    "rademacher.exhaustive.calls": "count",
    "rademacher.exhaustive.sign_vectors": "count",
    "rademacher.exhaustive.busy_s": "s",
    "rademacher.collapse.busy_s": "s",
    "boosting.adaboost.calls": "count",
    "boosting.adaboost.rounds": "count",
    "boosting.adaboost.busy_s": "s",
    "boosting.setup.busy_s": "s",
    "core.build.busy_s": "s",
    "bounds.reports.calls": "count",
    "bounds.reports.busy_s": "s",
    "bounds.partition.calls": "count",
    "bounds.partition.busy_s": "s",
    "harness.calibrate.calls": "count",
    "harness.calibrate.busy_s": "s",
    "harness.io.bytes": "bytes",
    "harness.io.busy_s": "s",
    "harness.op.self_s": "s",
    "setup.import.scipy_stats_s": "s",
    "setup.import.votemargin_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_s": "s",
}

_SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import votemargin.cli\n"
    "from votemargin.harness.config import parse_config\n"
    "for path in sys.argv[2:]:\n"
    "    parse_config(path)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def build() -> None:
    """Byte-compile the package, so set-up timings never include compiling."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "votemargin")],
        check=True, stdout=subprocess.DEVNULL,
    )


def time_setup(config_paths) -> float:
    """Seconds for a fresh interpreter to import votemargin.cli and parse the
    workload's configs.  The run has already imported the package, so the
    files are in the page cache."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), *map(str, config_paths)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def import_times(repeats: int = 3) -> dict:
    """Median cumulative import seconds from ``-X importtime``: scipy.stats,
    and every top-level votemargin import (with its dependencies)."""
    stats_s, package_s = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _SETUP_CODE, str(SRC)],
            check=True, capture_output=True, text=True,
        )
        scipy_stats = package = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            cumulative = int(parts[1])
            if name.strip() == "scipy.stats" and not scipy_stats:
                scipy_stats = cumulative
            if name.startswith("votemargin"):
                package += cumulative
        stats_s.append(scipy_stats / 1e6)
        package_s.append(package / 1e6)
    return {
        "setup.import.scipy_stats_s": statistics.median(stats_s),
        "setup.import.votemargin_s": statistics.median(package_s),
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _blas() -> dict:
    """BLAS library and thread count, read from the loaded OpenBLAS."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {"library": None, "threads": None}
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return {"library": Path(lib).name, "threads": fn()}
    return {"library": None, "threads": None}


def _cpu() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if llc is None or level >= llc[0]:
            llc = (level, size)
    return {"model": model, "llc": f"L{llc[0]} {llc[1]}" if llc else None}


def _commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "votemargin").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "cpu": _cpu(),
        "workload": workload,
        "why": workloads.WORKLOADS[workload],
        "seed": seed,
        "input_sizes": workloads.INPUT_SIZES[workload],
        "load": "one closed-loop client in one process; BLAS threads as configured",
        "wait_time": "none: one process and no queue between layers",
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _op_runner(kind: str, lemma):
    from votemargin.harness import checks, experiments

    if kind == "validate":
        return lambda config: checks.validate(lemma, config)
    if kind == "half-margin":
        return experiments.concentration_experiment
    if kind == "gap-vs-bounds":
        return experiments.gap_vs_bounds_experiment
    if kind == "adaboost":
        return experiments.adaboost_experiment
    raise ValueError(f"unknown operation kind {kind!r}")


def write_configs(workload: str, seed: int, j: int, pass_dir: Path) -> list:
    """Write pass j's config files; return [(op id, config path, runner)]."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i, (name, kind, lemma, keys) in enumerate(workloads.inputs(workload, seed)):
        op_id = f"{j}/{i:02d}-{name}"
        path = pass_dir / f"{i:02d}-{name}.ini"
        path.write_text(workloads.render(kind, keys, str(pass_dir / f"{i:02d}-{name}")))
        ops.append((op_id, path, _op_runner(kind, lemma)))
    return ops


def _run_op(path: Path, runner) -> bool:
    from votemargin.harness.config import parse_config

    return bool(runner(parse_config(path)).passed)


def csv_digests(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*.csv"))
    }


def run_pass(workload: str, seed: int, j: int, out_dir: Path, tracer=None) -> dict:
    """Run pass j once; the timed region is the operations alone."""
    pass_dir = out_dir / f"pass-{j}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    ops = write_configs(workload, seed, j, pass_dir)
    verdicts, op_ends = {}, []
    t0, c0 = time.perf_counter(), _cpu_seconds()
    for op_id, path, runner in ops:
        try:
            if tracer is None:
                verdicts[op_id] = _run_op(path, runner)
            else:
                verdicts[op_id] = tracer.op(op_id, _run_op, path, runner)
        except Exception as exc:  # one operation's crash fails that operation
            verdicts[op_id] = f"{type(exc).__name__}: {exc}"
        op_ends.append(time.perf_counter())
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
    op_s = {op_id: end - start
            for op_id, start, end in zip(verdicts, [t0] + op_ends, op_ends)}
    digests = csv_digests(pass_dir)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {"pass": j, "wall_s": wall, "cpu_s": cpu, "op_s": op_s,
            "verdicts": verdicts, "digests": digests}


def _failures(passes) -> list:
    return [
        (op_id, verdict)
        for p in passes for op_id, verdict in p["verdicts"].items()
        if verdict is not True
    ]


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Untraced passes and set-ups within ``seconds``; end-to-end metrics.

    A further pass starts only if one more of the last pass's length still
    ends inside the window, so a run overruns it by little.  All passes do the
    same work, and a shared host only ever adds time to a pass (it slows by up
    to 2x for tens of seconds at a time), so the fastest pass is the steadiest
    estimate of the program's own cost; every pass is kept in the record.
    Set-up samples are taken before passes, spread evenly over the window.
    """
    config_paths = [p for _, p, _ in write_configs(workload, seed, 0, out_dir / "setup")]
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + passes[-1]["wall_s"] > seconds:
            break
        if len(setups) * seconds <= SETUP_REPEATS * elapsed:
            setups.append(time_setup(config_paths))
        passes.append(run_pass(workload, seed, len(passes), out_dir))
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(config_paths))
    return {
        "passes": passes,
        "setup_samples": setups,
        "metrics": {
            "wall_s": min(p["wall_s"] for p in passes),
            "cpu_s": min(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
        },
    }


def traced(workload: str, seed: int, out_dir: Path) -> dict:
    """The fixed trace passes, untraced and then traced; per-layer metrics."""
    warmup, count = workloads.TRACE_PASSES[workload]
    for j in range(warmup):
        run_pass(workload, seed, j, out_dir)
    plain = [run_pass(workload, seed, j, out_dir) for j in range(count)]
    with Tracer() as tracer:
        spanned = [run_pass(workload, seed, j, out_dir, tracer) for j in range(count)]
    times = tracer.layer_times()
    untraced_wall = sum(p["wall_s"] for p in plain)
    traced_ops = sum(p["wall_s"] for p in spanned)
    metrics = {name: float(tracer.counts.get(name, 0))
               for name, unit in PER_LAYER.items() if unit != "s"}
    for layer in LAYERS:
        busy, own = times.get(layer, (0.0, 0.0))
        metrics[f"{layer}.busy_s"] = busy
        metrics[f"{layer}.self_s"] = own
    metrics.update({
        "trace.passes": float(count),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_ops,
        "trace.overhead_s": traced_ops - untraced_wall,
        "trace.accounted_s": accounted(times),
    })
    # Busy times and the wall they are shares of come from the same traced passes.
    tail = metrics["discretize.tail_exact.busy_s"] + metrics["discretize.tail_batch.busy_s"]
    shares = {
        "tail_busy_share_of_wall": tail / traced_ops,
        "rademacher_exhaustive_share_of_wall":
            metrics["rademacher.exhaustive.busy_s"] / traced_ops,
        "unaccounted_s": traced_ops - metrics["trace.accounted_s"],
    }
    transparent = [p["digests"] for p in plain] == [p["digests"] for p in spanned]
    return {
        "passes": plain + spanned,
        "metrics": metrics,
        "shares": shares,
        "transparent": transparent,
        "missing_entry_points": tracer.missing,
        "spans": tracer.span_rows(),
    }


def execute(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Gate plus workload in this process; returns the result and record."""
    import gate

    checks_run = gate.run(out_dir / "gate")
    body = traced(workload, seed, out_dir) if trace else measure(workload, seed, seconds, out_dir)
    if trace:
        checks_run.append({
            "check": "trace-transparent",
            "ok": body["transparent"],
            "detail": "traced and untraced passes wrote identical CSV digests",
        })
    failures = _failures(body["passes"]) + [c for c in checks_run if not c["ok"]]
    attempted = sum(len(p["verdicts"]) for p in body["passes"]) + len(checks_run)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "gate": checks_run,
        **body,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _import_package():
    if not (SRC / "votemargin" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'votemargin'}")
    sys.path.insert(0, str(SRC))
    import votemargin
    import votemargin.cli  # noqa: F401  (every layer the CLI reaches)

    if SRC.resolve() not in Path(votemargin.__file__).resolve().parents:
        raise BenchError(f"votemargin imported from {votemargin.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    build()
    record = {"provenance": provenance(args.workload, args.seed)}
    setup = import_times() if args.trace else {}

    result = execute(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    metrics = {**result.pop("metrics"), **setup}
    if args.trace:
        spans = result.pop("spans")
        with open(out_dir / "spans.jsonl", "w") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")
        names = PER_LAYER
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["pass_share"] = 1.0 - result["failed"] / result["attempted"]
        names = END_TO_END
    record.update(result, metrics=metrics)
    (out_dir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({"provenance": record["provenance"]}))
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
