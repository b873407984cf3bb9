"""The command-line scripts run to completion against the checkout's source."""

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@cache
def run_script(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", ["run_acceptance_cli.py", "walk1_exactness_probe.py",
                                    "sweep_cycle_bounds.py"])
def test_script_exits_zero(script):
    done = run_script(script)
    assert done.returncode == 0, done.stdout + done.stderr


def test_cycle_sweep_block_is_pinned():
    """The exhaustive walk-bound sweep's counts and first witnesses."""
    lines = run_script("sweep_cycle_bounds.py").stdout.splitlines()
    start = lines.index("exhaustive walk-bound sweep: sizes 4, 6, 8, all starts, t <= 12")
    assert lines[start + 1:start + 8] == [
        "  instances: 704",
        "  coverage  violations: 1822  first: ('RRBBRB', 2, 3, Fraction(5, 32), Fraction(1, 8))",
        "  vertices  violations: 100  first: ('RBRB', 0, 0, Fraction(1, 1), Fraction(0, 1))",
        "  distance  violations: 0",
        "  fairness  violations: 6006  first: ('RRBBRB', 0, 2, Fraction(3, 8), Fraction(5, 16))",
        "  dominance violations: 0",
        "",
    ]
