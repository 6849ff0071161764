"""The public surface: every exported name resolves, and the scalar
per-prime duplicates and test-only references stay out of the package."""

import importlib
import pkgutil

import pytest

import lrlab

MODULES = ["lrlab"] + [f"lrlab.{m.name}" for m in pkgutil.iter_modules(lrlab.__path__)]

# deleted, or moved to tests/scalar_reference.py
REMOVED = (
    "wilton_class",
    "wilton_class_cubic",
    "cubic_root_exists",
    "cubic_splits",
    "wilton_codes_cubic",
    "WILTON_LABELS",
    "S1",
    "S2",
    "S3",
    "P23",
    "is_prime",
    "kronecker_symbol",
    "multiplicative_order",
    "mult_order",
    "order_table_691",
    "zero_period",
    "f_prime_power",
    "f_value",
    "lambda_f_prime_power",
    "lambda_f_closed_form",
    "lambda_table",
    "zeta_log_derivative_at_2",
    "zero_periods",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports), name
    assert [e for e in exports if not hasattr(module, e)] == [], name


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    assert [r for r in REMOVED if hasattr(module, r)] == [], name
