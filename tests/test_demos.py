"""Each demo script, and the README's python snippet, runs to completion in
a fresh interpreter.

The demos import the package's public names, so a renamed or deleted name
they still use fails here.  The README snippet's comments show what each of
its print calls prints, and must match it.
"""

import re
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


def test_readme_snippet_prints_what_it_says(src_env):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=src_env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    shown = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert proc.stdout.splitlines() == shown
    assert proc.stdout.rstrip().endswith("CLAIM_FALSE")
