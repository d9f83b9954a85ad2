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
    assert "all four sign patterns on two points: 1.0" in lines


def test_boosting_margins():
    lines = run_demo("boosting_margins.py")
    assert any(line.startswith("AdaBoost: ") and " rounds" in line for line in lines)
    assert any(line.startswith("final training error:") for line in lines)
