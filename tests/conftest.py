import os
from pathlib import Path

import pytest

from lrlab.verify import run_checks


@pytest.fixture(scope="session")
def full_checks():
    """The complete verification gate, computed once per session."""
    return run_checks()


@pytest.fixture(scope="session")
def src_env():
    """The environment for a fresh interpreter that imports lrlab from this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
