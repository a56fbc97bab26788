"""The demos are deterministic: their standard output must match demos/expected/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ksnet

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_output_unchanged(script):
    env = dict(os.environ, PYTHONPATH=str(Path(ksnet.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (DEMOS / "expected" / f"{script.stem}.txt").read_text()
