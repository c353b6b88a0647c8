"""Each demo prints exactly its expected output."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_expected_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, check=True
    )
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    assert run.stdout == expected.read_bytes()
