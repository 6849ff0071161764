"""The benchmark tracer reads lru_cache statistics from named lrlab functions.

perfbench/tracer.py is loaded by path (perfbench is not a package), and every
(module, attribute) it reads cache statistics from must still exist and be an
lru_cache function; otherwise only a full benchmark run would notice.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cache_metrics_name_lru_cache_functions():
    metrics = _tracer().CACHE_METRICS
    assert metrics
    for _, module, attr, _ in metrics:
        fn = getattr(importlib.import_module(f"lrlab.{module}"), attr, None)
        assert fn is not None, f"lrlab.{module}.{attr} is gone"
        assert callable(getattr(fn, "cache_info", None)), f"lrlab.{module}.{attr} has no cache_info"
