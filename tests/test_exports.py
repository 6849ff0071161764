"""The public surface: every exported name resolves, the scalar per-prime
duplicates and test-only references stay out of the package, and no private
helper in it is left without a caller."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lrlab

MODULES = ["lrlab"] + [f"lrlab.{m.name}" for m in pkgutil.iter_modules(lrlab.__path__)]

# deleted, or moved to tests/scalar_reference.py or tests/euler_reference.py
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
    "q3_direct_b",
    "csum",
    "_DIVISORS_690",
    "_ORDER_CLASSES",
    # argument checks, deleted (or made private) when lrlab._args took them: one copy of each
    "matches_truncated",
    "_check_modulus",
    "_check_order",
    "_members",
    "_check_character",
    "_check_float_range",
    "_check_n_max",
    "_SUPPORTED_MODULI",
    "_is_finite",
    "_desk_x",
    "_finite_float",
    "_validate",
    # folded into the report that constants.second_order_constant makes
    "verdict",
    # sieve_primes returns the read-only array itself
    "PrimeTable",
    # Wilton's data, now one table in lrlab.primes (WILTON_RESIDUES and the rest)
    "_KRON23",
    "_WILTON_RESIDUES",
    # folded into lseries._em_sums, one pass for every s of a (modulus, k)
    "_g_derivative",
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


def test_import_loads_no_front_end(src_env):
    # import lrlab stays off the CLI, the verification gate and the identity
    # checks, so a change there leaves the library's import cost as it was
    script = "import sys, lrlab; print(sorted({'lrlab.cli', 'lrlab.verify', 'lrlab.identities'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


def private_top_level_names(tree: ast.Module) -> set[str]:
    """Functions, classes and assigned names at module level that start with _, dunders excepted."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


def test_every_private_helper_has_a_caller_in_the_package():
    # a name that occurs only once in src/lrlab is its own definition: a helper
    # left behind by a deletion, or one that only the tests still call
    sources = [p.read_text() for p in sorted(Path(lrlab.__file__).parent.glob("*.py"))]
    private = set().union(*(private_top_level_names(ast.parse(text)) for text in sources))
    assert len(private) > 50
    unused = [n for n in sorted(private) if sum(len(re.findall(rf"\b{n}\b", text)) for text in sources) < 2]
    assert unused == []
