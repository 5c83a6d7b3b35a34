"""The narrative demos run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DEMOS = [
    "01_synthesize_and_inspect.py",
    "02_periodogram_and_grid_start.py",
    "03_estimate_fundamental.py",
    "04_asymptotic_variances.py",
    "05_monte_carlo_tables.py",
]


# The warning classes pyproject's filterwarnings turns into errors; a
# subprocess does not inherit pytest's filters, so each demo gets them as -W
WARNINGS_AS_ERRORS = [
    f"-Werror::{category}"
    for category in ("RuntimeWarning", "DeprecationWarning", "ResourceWarning")
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
