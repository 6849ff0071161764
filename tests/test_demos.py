"""Each demo script runs to completion in a fresh interpreter.

The demos import the package's public names, so a renamed or deleted name
they still use fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, src_env):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=src_env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert DEMOS, "no demo scripts under demos/"
