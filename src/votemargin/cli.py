"""Command-line interface.

Subcommands:

* ``bounds eval``   — print a term-breakdown table of every bound family.
* ``bounds grid``   — sweep one parameter and emit CSV (value, bounds, terms).
* ``validate``      — run one named check suite and print its report.
* ``experiment run``— run the experiment an INI config names: half-margin,
  within-const, gap-vs-bounds or adaboost (a training run with its round
  table and margin histogram).

Exit status: 0 on pass, 1 on a failed assertion, 2 on usage, config,
precondition or file errors (an output path that is not a directory, a
missing constants file).  Output directories default to the VOTEMARGIN_OUT
environment variable, then the working directory.

The CLI loads neither numpy nor scipy until a command computes with arrays.
Argument parsing, config parsing, ``bounds eval``, ``bounds grid``, the help
texts and every refusal of a bad argument, config, lemma id or section kind
run on the standard library alone: this module imports ``bounds`` and
``harness.config``, which import no numpy, and each handler imports the
harness layer it computes with (``checks``, ``experiments``, ``reporting``)
only after its input has passed those checks.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import BOUND_NAMES, BoundInputs, BoundReport, all_reports
from .harness.config import (
    OUTPUT_DIR_ENV,
    VALID_LEMMA_IDS,
    ConfigError,
    ExperimentConfig,
    _check_lemma_id,
    _list_field,
    parse_config,
    parse_config_text,
)

__all__ = ["main"]

_SWEEPABLE = ("n", "h-size", "theta", "delta", "loss", "c", "tau")

#: The runner of each config kind that ``experiment run`` accepts, by its
#: name in ``harness.experiments``.
_EXPERIMENTS = {
    "half-margin": "concentration_experiment",
    "within-const": "concentration_experiment",
    "gap-vs-bounds": "gap_vs_bounds_experiment",
    "adaboost": "adaboost_experiment",
}


def _add_bound_args(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--n", type=int, required=required, help="sample size")
    parser.add_argument(
        "--h-size", type=int, required=required, help="hypothesis class size |H|"
    )
    parser.add_argument(
        "--theta", type=float, required=required, help="margin threshold in (0, 1]"
    )
    parser.add_argument(
        "--delta", type=float, required=required, help="failure probability in (0, 1)"
    )
    parser.add_argument(
        "--loss", type=float, required=required, help="empirical margin loss in [0, 1]"
    )
    parser.add_argument(
        "--c", type=float, default=1.0, help="leading constant (default 1)"
    )
    parser.add_argument(
        "--tau",
        type=float,
        default=None,
        help="target loss for the lower bound (omit to skip it)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votemargin",
        description="Margin-based generalization bounds for voting classifiers.",
        epilog=f"Default output directory: ${OUTPUT_DIR_ENV}, else the "
        "working directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="evaluate the bound families")
    bounds_sub = bounds.add_subparsers(dest="bounds_command", required=True)

    ev = bounds_sub.add_parser("eval", help="print a term-breakdown table")
    _add_bound_args(ev, required=True)

    grid = bounds_sub.add_parser("grid", help="sweep one parameter, emit CSV")
    _add_bound_args(grid, required=False)
    grid.add_argument(
        "--sweep", required=True, choices=_SWEEPABLE, help="parameter to sweep"
    )
    grid.add_argument(
        "--values", required=True, help="comma-separated sweep values"
    )
    grid.add_argument(
        "--out", default=None, help="CSV output path (default: stdout)"
    )

    val = sub.add_parser("validate", help="run one named check suite")
    val.add_argument(
        "lemma_id", metavar="lemma-id", help=f"one of: {', '.join(VALID_LEMMA_IDS)}"
    )
    val.add_argument("--config", default=None, help="INI file with a [validate] section")

    exp = sub.add_parser("experiment", help="run configured experiments")
    exp_sub = exp.add_subparsers(dest="experiment_command", required=True)
    exp_run = exp_sub.add_parser("run", help="run the experiment in an INI config")
    exp_run.add_argument("config", help="path to the INI config file")

    return parser


def _inputs_from_args(args, **overrides) -> BoundInputs:
    fields = {
        "n": args.n,
        "H_size": args.h_size,
        "theta": args.theta,
        "delta": args.delta,
        "loss": args.loss,
        "c": args.c,
    }
    fields.update(overrides)
    return BoundInputs(**fields)


def _bounds_eval(args) -> int:
    inputs = _inputs_from_args(args)
    reports = all_reports(inputs, tau=args.tau)
    header = f"{'bound':<12} {'value':>12} {'offset':>10} {'sqrt':>12} {'log':>12} {'delta':>12}  dominating"
    print(header)
    print("-" * len(header))
    for name in BOUND_NAMES:
        report = reports.get(name)
        if report is None:
            print(f"{name:<12} (skipped: no --tau given)")
            continue
        if isinstance(report, str):
            print(f"{name:<12} (inapplicable: {report})")
            continue
        print(
            f"{name:<12} {report.value:>12.6g} {report.loss_offset:>10.6g} "
            f"{report.sqrt_term:>12.6g} {report.log_term:>12.6g} "
            f"{report.delta_term:>12.6g}  {report.dominating}"
        )
        for warning in report.warnings:
            print(f"{'':<12} warning: {warning}")
    return 0


def _bounds_grid(args) -> int:
    required = {"n", "h-size", "theta", "delta", "loss"}
    missing = [
        f"--{name}"
        for name in sorted(required - {args.sweep})
        if getattr(args, name.replace("-", "_")) is None
    ]
    if missing:
        raise ValueError(f"missing fixed parameters: {', '.join(missing)}")
    item = int if args.sweep in ("n", "h-size") else float
    values = _list_field("--values", item)(args.values)

    header = [args.sweep]
    for name in BOUND_NAMES:
        slug = name.replace("-", "_")
        header += [slug, f"{slug}_sqrt", f"{slug}_log", f"{slug}_delta"]

    rows = []
    for value in values:
        tau = args.tau
        if args.sweep == "tau":
            tau = value
            inputs = _inputs_from_args(args)
        else:
            field = {"h-size": "H_size"}.get(args.sweep, args.sweep)
            inputs = _inputs_from_args(args, **{field: value})
        reports = all_reports(inputs, tau=tau)
        row = [value]
        for name in BOUND_NAMES:
            report = reports.get(name)
            if isinstance(report, BoundReport):
                row += [
                    report.value,
                    report.sqrt_term,
                    report.log_term,
                    report.delta_term,
                ]
            else:
                row += ["", "", "", ""]
        rows.append(row)

    from .harness.reporting import write_csv, write_rows

    if args.out is None:
        write_rows(sys.stdout, header, rows)
    else:
        write_csv(args.out, header, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _read_config(path, kinds, mismatch: str) -> ExperimentConfig:
    """Parse an INI config whose section must be one of ``kinds``.

    ``mismatch`` is the error for any other section, formatted with its kind.
    """
    config = parse_config(path)
    if config.kind not in kinds:
        raise ConfigError(mismatch.format(kind=config.kind))
    return config


def _print_report(report) -> int:
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _validate(args) -> int:
    if args.config is None:
        config = parse_config_text("[validate]\n")
    else:
        config = _read_config(
            args.config,
            ("validate",),
            "validate expects a [validate] config section, got [{kind}]",
        )
    _check_lemma_id(args.lemma_id)
    from .harness.checks import validate

    return _print_report(validate(args.lemma_id, config))


def _experiment_run(args) -> int:
    config = _read_config(
        args.config,
        _EXPERIMENTS,
        "[{kind}] configs drive the validate command, not experiment run",
    )
    from .harness import experiments

    return _print_report(getattr(experiments, _EXPERIMENTS[config.kind])(config))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bounds":
            if args.bounds_command == "eval":
                return _bounds_eval(args)
            return _bounds_grid(args)
        if args.command == "validate":
            return _validate(args)
        if args.command == "experiment":
            return _experiment_run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
