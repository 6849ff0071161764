"""Paths, child-process environment and digests shared by the benchmark files."""

from __future__ import annotations

import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden")
CHILD = os.path.join(HERE, "child.py")
PYTHON = sys.executable or "python3"


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "lrlab", "__init__.py"))


def child_env() -> dict:
    """Environment for every child: the checkout's sources, one thread, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k not in ("LRLAB_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def int_digest(values) -> str:
    """Digest of a sequence of Python integers (exact, any size)."""
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()[:32]


def array_digest(array) -> str:
    """Digest of an integer numpy array, independent of its integer dtype."""
    import numpy as np

    data = np.ascontiguousarray(array, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:32]
