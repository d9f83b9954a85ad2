"""Experiment configuration: flat key-value INI files, one section per run.

The section name selects the experiment kind; every key is validated
against that kind's schema.  Unknown keys are hard errors — a silent typo
in a study config corrupts the study.

This module also holds the names the CLI refuses input with before it
computes: the lemma ids ``validate`` accepts and the output-directory
environment variable.  Like ``bounds``, it imports no numpy.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .._scalar import _check_count, _check_real

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "EXPERIMENT_KINDS",
    "DEFAULT_SEED",
    "OUTPUT_DIR_ENV",
    "VALID_LEMMA_IDS",
]

#: Seed of a [validate] section that sets none, as `votemargin validate` parses without --config.
DEFAULT_SEED = 1729

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "VOTEMARGIN_OUT"

#: The ids of the check suites ``validate`` runs, in the order the CLI lists them.
VALID_LEMMA_IDS = (
    "margin-law",
    "monotonicity",
    "decomposition",
    "phi-rho-ineq",
    "phi-bound",
    "lipschitz",
    "delta-allocation",
    "partition-coverage",
    "massart",
    "convexity-collapse",
    "half-margin-expectation",
)


def _check_lemma_id(lemma_id: str) -> None:
    """Refuse ``lemma_id`` unless it names a check suite."""
    if lemma_id not in VALID_LEMMA_IDS:
        raise ValueError(
            f"unknown lemma id {lemma_id!r}; valid ids: {', '.join(VALID_LEMMA_IDS)}"
        )


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def _int_field(name, lo, hi=None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
        return _check_count(value, name, lo, hi)

    return parse


def _float_field(name, lo, hi, lo_open=False, hi_open=False):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{name} must be a number, got {text!r}") from None
        return _check_real(value, name, lo, hi, lo_open, hi_open)

    return parse


def _list_field(name, item):
    """Parser of a comma-separated list, each non-blank entry read by ``item``."""

    def parse(text: str) -> tuple:
        values = tuple(item(part.strip()) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError(f"{name} must list at least one number")
        return values

    return parse


def _str_field(name):
    def parse(text: str) -> str:
        if not text:
            raise ValueError(f"{name} must be non-empty")
        return text

    return parse


# Concentration experiments run on deliberately small instances; the limits
# below are refusals, not suggestions.
_CONCENTRATION_SCHEMA = {
    "seed": (_int_field("seed", lo=0), True, None),
    "n": (_int_field("n", lo=1, hi=500), False, 200),
    "h_size": (_int_field("h_size", lo=2, hi=16), False, 8),
    "x_size": (_int_field("x_size", lo=2, hi=64), False, 32),
    "trials": (_int_field("trials", lo=200), False, 500),
    "delta": (_float_field("delta", 0.0, 1.0, lo_open=True, hi_open=True), False, 0.1),
    "theta": (_float_field("theta", 0.0, 1.0, lo_open=True), False, 0.35),
    "probes": (_int_field("probes", lo=1), False, 100),
    "out": (_str_field("out"), False, None),
}

_SCHEMAS = {
    "half-margin": dict(_CONCENTRATION_SCHEMA),
    "within-const": dict(_CONCENTRATION_SCHEMA),
    "gap-vs-bounds": {
        "seed": (_int_field("seed", lo=0), True, None),
        "d": (_int_field("d", lo=1), False, 2),
        "k": (_int_field("k", lo=1), False, 7),
        "noise": (_float_field("noise", 0.0, 0.5, hi_open=True), False, 0.0),
        "t": (_int_field("t", lo=1), False, 400),
        "n_grid": (_list_field("n_grid", _int_field("n_grid", lo=1)), False, (200, 800, 3200)),
        "theta_grid": (
            _list_field("theta_grid", _float_field("theta_grid", 0.0, 1.0, lo_open=True)),
            False,
            (0.3, 0.45, 0.6, 0.75, 0.9),
        ),
        "delta": (
            _float_field("delta", 0.0, 1.0, lo_open=True, hi_open=True),
            False,
            0.05,
        ),
        "c": (_float_field("c", 0.0, float("inf"), lo_open=True), False, None),
        "constants_csv": (_str_field("constants_csv"), False, None),
        "trend_theta": (
            _float_field("trend_theta", 0.0, 1.0, lo_open=True),
            False,
            0.6,
        ),
        "out": (_str_field("out"), False, None),
    },
    "adaboost": {
        "seed": (_int_field("seed", lo=0), True, None),
        "d": (_int_field("d", lo=1), False, 2),
        "k": (_int_field("k", lo=1), False, 7),
        "noise": (_float_field("noise", 0.0, 0.5, hi_open=True), False, 0.1),
        "n": (_int_field("n", lo=1), False, 400),
        "t": (_int_field("t", lo=1), False, 200),
        "bins": (_int_field("bins", lo=2), False, 20),
        "out": (_str_field("out"), False, None),
    },
    "validate": {
        "seed": (_int_field("seed", lo=0), False, DEFAULT_SEED),
        "trials": (_int_field("trials", lo=1), False, None),
        "grid_points": (_int_field("grid_points", lo=2), False, None),
        "out": (_str_field("out"), False, None),
    },
}

EXPERIMENT_KINDS = tuple(sorted(_SCHEMAS))


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment section: kind, master seed, validated params."""

    kind: str
    seed: int
    params: dict


def _build(kind: str, raw: dict) -> ExperimentConfig:
    schema = _SCHEMAS[kind]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in section [{kind}]; "
            f"allowed: {sorted(schema)}"
        )
    params = {}
    for key, (parse, required, default) in schema.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        elif required:
            raise ConfigError(f"section [{kind}] requires key '{key}'")
        else:
            params[key] = default
    return ExperimentConfig(kind=kind, seed=params["seed"], params=params)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse one experiment section from INI text."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    sections = parser.sections()
    if len(sections) != 1:
        raise ConfigError(
            f"config must contain exactly one section, found {sections or 'none'}"
        )
    kind = sections[0]
    if kind not in _SCHEMAS:
        raise ConfigError(
            f"unknown experiment kind [{kind}]; expected one of {list(EXPERIMENT_KINDS)}"
        )
    return _build(kind, dict(parser.items(kind)))


def parse_config(path) -> ExperimentConfig:
    """Parse a config file (see parse_config_text)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))
