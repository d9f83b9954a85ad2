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
import sys
from dataclasses import dataclass
from pathlib import Path

from .config import OUTPUT_DIR_ENV

__all__ = [
    "OUTPUT_DIR_ENV",
    "resolve_out_dir",
    "format_value",
    "write_rows",
    "write_csv",
    "write_summary",
    "LemmaCheckReport",
    "write_constants_csv",
    "read_constants_csv",
]


def resolve_out_dir(out_dir) -> Path:
    """Explicit argument, else $VOTEMARGIN_OUT, else the working directory."""
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def format_value(value) -> str:
    """CSV cell text: floats at 17 significant digits, ints/str verbatim.

    The three exact types most cells hold are tested first, each by one
    type comparison; every other value goes through the checks below.  A
    numpy scalar exists only once numpy is loaded, so numpy is read from
    ``sys.modules``, not imported.
    """
    kind = type(value)
    if kind is float:
        return format(value, ".17g")
    if kind is int:
        return str(value)
    if kind is str:
        return value
    np = sys.modules.get("numpy")
    if isinstance(value, bool) or (np is not None and isinstance(value, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, int) or (np is not None and isinstance(value, np.integer)):
        return str(int(value))
    if isinstance(value, float) or (np is not None and isinstance(value, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


def write_rows(fh, header, rows) -> None:
    """Write a header row and the formatted rows to an open text stream, LF-terminated."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])


def write_csv(path, header, rows) -> Path:
    """Write one CSV file (see ``write_rows``) and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)
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
    calibrated_constant: float | None
    csv_path: str

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
        yield f"rows: {self.csv_path}"


def write_constants_csv(path, constants: dict) -> Path:
    """Persist calibrated constants as (name, value) rows."""
    return write_csv(
        path, ["name", "value"], sorted(constants.items(), key=lambda kv: kv[0])
    )


def read_constants_csv(path) -> dict:
    """Read back a calibrated-constants CSV; an empty file is refused."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"constants file {path} is empty: it needs a name,value header")
        if header != ["name", "value"]:
            raise ValueError(f"unexpected constants header: {header!r}")
        for name, value in reader:
            out[name] = float(value)
    return out
