"""CSV persistence, report records, and output-directory resolution.

Every artifact the harness writes is either a CSV (17-significant-digit
numerics, LF line endings, mandatory header) or a plain-text summary, so
studies replay byte-for-byte from (config, master seed) at a fixed BLAS
thread count: a matrix product's last bits depend on how BLAS splits it
between threads.  The float products that still go through BLAS are
``margins_of`` and the concentration-trial products in ``experiments``,
``corr @ combos.T`` in ``rademacher.convexity_collapse_check``, and
``probs @ (1 − tails)`` in ``discretize``; AdaBoost's errors and a voter's
values are fixed-order sums with no BLAS call.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "OUTPUT_DIR_ENV",
    "resolve_out_dir",
    "format_value",
    "write_csv",
    "write_summary",
    "LemmaCheckReport",
    "write_constants_csv",
    "read_constants_csv",
]

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "VOTEMARGIN_OUT"


def resolve_out_dir(out_dir=None) -> Path:
    """Explicit argument, else $VOTEMARGIN_OUT, else the working directory."""
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_value(value) -> str:
    """CSV cell text: floats at 17 significant digits, ints/str verbatim."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write one CSV with a header row and LF line endings."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
    return path


def write_summary(path, lines) -> Path:
    """Write the plain-text companion summary (LF line endings)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")
    return path


@dataclass(frozen=True)
class LemmaCheckReport:
    """Outcome of one numerical check suite: it passes iff max_violation <= tolerance."""

    lemma: str
    summary: str
    max_violation: float
    tolerance: float
    calibrated_constant: float | None = None
    csv_path: str | None = None

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def lines(self):
        yield f"lemma: {self.lemma}"
        yield f"verdict: {'pass' if self.passed else 'FAIL'}"
        yield f"max violation: {format_value(self.max_violation)}"
        yield f"tolerance: {format_value(self.tolerance)}"
        if self.calibrated_constant is not None:
            yield f"smallest passing constant: {format_value(self.calibrated_constant)}"
        yield f"summary: {self.summary}"
        if self.csv_path:
            yield f"rows: {self.csv_path}"


def write_constants_csv(path, constants: dict) -> Path:
    """Persist calibrated constants as (name, value) rows."""
    return write_csv(
        path, ["name", "value"], sorted(constants.items(), key=lambda kv: kv[0])
    )


def read_constants_csv(path) -> dict:
    """Read back a calibrated-constants CSV."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["name", "value"]:
            raise ValueError(f"unexpected constants header: {header!r}")
        for name, value in reader:
            out[name] = float(value)
    return out
