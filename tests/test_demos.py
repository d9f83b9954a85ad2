"""Smoke tests that run the demo scripts as a user would."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> list:
    """Run ``demos/<name>`` with the source tree importable; its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_rademacher_playground():
    lines = run_demo("rademacher_playground.py")
    assert "single hypothesis: 0.0" in lines
    assert "convex mixtures never exceed the vertex supremum: True" in lines
    assert "all four sign patterns on two points: 1.0" in lines


def test_boosting_margins():
    lines = run_demo("boosting_margins.py")
    assert any(line.startswith("AdaBoost: ") and " rounds" in line for line in lines)
    assert any(line.startswith("final training error:") for line in lines)
    assert "theorem1        1.01740" in lines


def test_bound_zoo():
    lines = run_demo("bound_zoo.py")
    assert "pair-budget sum: 1.973e-06 <= 0.025" in lines
    assert "cell-budget sum: 6.514e-17 <= 0.025" in lines
    assert "theorem1        0.20118    0.04902    0.03136    0.00080       sqrt" in lines
    assert "chosen N for margin cell 2 x loss cell 3: 489" in lines


def test_margin_law_tour():
    lines = run_demo("margin_law_tour.py")
    assert "non-decreasing in lambda over a 2001-point grid: True" in lines


def test_surrogate_functions():
    lines = run_demo("surrogate_functions.py")
    assert "  violations per inequality: (0, 0, 0, 0)" in lines
    assert "sup phi = 0.0133676 <= exp(-N theta_i^2/16) = 0.278037: True" in lines
    assert "single-constant ceiling: max slope 0.385772 <= 256.404: True" in lines
