"""The benchmark tracer reads lru_cache statistics from named lrlab functions.

perfbench/tracer.py is loaded by path (perfbench is not a package), and every
(module, attribute) it reads cache statistics from must still exist and be an
lru_cache function; otherwise only a full benchmark run would notice.  Its
per-layer spans whose function has left src/ read 0 on every workload; their
set is pinned, so a deletion cannot add one unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# SPAN_METRICS names with no function behind them
DEAD_SPANS = {
    "budget.csum",
    "lseries.prime_log_sum",
    "lseries.zeta_log_derivative_at_2",
    "lseries.zeta_real",
    "lseries.l_series_truncated",
    "primes.wilton_codes",
    "primes.order_codes",
    "primes.wilton_class_cubic",
    "primes.cubic_root_exists",
    "primes.wilton_class",
    "primes.is_prime",
    "multfn.zero_periods",
    "constants.omitted_products_bound",
    "constants.q3_direct_b",
    "identities.local_factor_gap_q691",
}


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


def test_dead_spans_are_pinned():
    dead = set()
    for span, _ in _tracer().SPAN_METRICS:
        module, attr = span.split(".")
        if not callable(getattr(importlib.import_module(f"lrlab.{module}"), attr, None)):
            dead.add(span)
    assert dead == DEAD_SPANS
