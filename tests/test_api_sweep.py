"""The library's twin of tests/test_cli.py::test_each_hostile_value_alone.

Every function in a module's ``__all__``, and each constructor in
CONSTRUCTORS, takes, one parameter at a time,
each hostile value while its other arguments stay valid, and must either
return or raise an LrlabError: never a bare TypeError, ValueError,
OverflowError or numpy warning (the suite turns warnings into errors).
"""

import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import lrlab
from lrlab import constants, modforms, multfn, verify
from lrlab.budget import ValueWithBudget
from lrlab.characters import DirichletCharacter, generator_character
from lrlab.errors import LrlabError

HOSTILE = (
    None, "x", "5", [5], (5,), {}, 1.5, math.nan, math.inf, -math.inf, -1, 0, True, 1 + 2j,
    np.int64(5), np.float64(math.nan), 2**1100, -(2**20000), b"5", object(), np.array([5, 7]),
)

# The public classes, each constructor swept with the functions.
CONSTRUCTORS = {
    "budget.ValueWithBudget": ValueWithBudget,
    "characters.DirichletCharacter": DirichletCharacter,
    "constants.ConstantReport": constants.ConstantReport,
    "modforms.TauWindow": modforms.TauWindow,
    "multfn.CaseSpec": multfn.CaseSpec,
}

# Small valid arguments for every public function that takes any, and for each
# constructor.  A function added to an __all__ without an entry here fails
# test_every_public_function_is_swept.
VALID = {
    "budget.ValueWithBudget": {"value": 0.5, "budget": 1e-12},
    "characters.kronecker_character": {"D": -7},
    "characters.generator_character": {"m": 5, "j": 1},
    "characters.character_group": {"m": 5},
    "characters.euler_phi": {"m": 5},
    "characters.DirichletCharacter": {"modulus": 5, "index": 1},
    "constants.second_order_constant": {"case": "q5"},
    "constants.table1": {"cases": ["q5"]},
    "constants.ConstantReport": {
        "case": "q5", "tau": Fraction(3, 4), "delta": Fraction(1, 4), "b_f": ValueWithBudget(-0.4, 1e-12),
        "c2": ValueWithBudget(0.15, 1e-12), "c2_ramanujan": Fraction(1, 4), "h_checkpoints": (),
        "verdict": constants.CLAIM_FALSE,
    },
    "identities.truncated_T": {"case": "q5", "s": 2, "n_terms": 100},
    "identities.euler_identity_sides": {"tag": "q5", "s": 2, "n_terms": 100},
    "identities.local_factor_gap": {"case": "q5", "x": 0.5, "p_limit": 100},
    "lseries.gamma_k": {"r": 1, "m": 5, "k": 0},
    "lseries.l_derivative_at_1": {"chi": generator_character(5, 1), "k": 0},
    "lseries.l_value": {"chi": generator_character(5, 1), "s": 2, "k": 0},
    "lseries.zeta_value": {"s": 2, "k": 0},
    "lseries.closed_form_l_values": {"tag": "chi5"},
    "lseries.prime_class_sum": {"m": 5, "residues": [1], "s": 2, "derivative": 1},
    "lseries.frobenius_class_sum": {"classes": [0], "a": 2, "derivative": 1},
    "modforms.tau_exact": {"n_max": 10},
    "modforms.tau_mod": {"q": 3, "n_max": 10},
    "modforms.lambda_mod3": {"n_max": 10},
    "modforms.odd_tau_count": {"x": 10},
    "modforms.TauWindow": {"n_max": 2, "values": [1, -24]},
    "multfn.CaseSpec": {"tag": "x", "residues": (0, 0, 2, 1), "m0": (multfn.M_NEVER, 2, multfn.M_NEVER)},
    "multfn.get_case": {"case": "q5"},
    "multfn.class_index": {"case": "q5", "limit": 100},
    "multfn.f_sieve": {"case": "q5", "x": 100},
    "multfn.count_f": {"case": "q5", "x": 100},
    "multfn.h_f": {"case": "q5", "x": 100},
    "multfn.dirichlet_series_truncated": {"case": "q5", "s": 2, "n_terms": 100},
    "primes.sieve_primes": {"limit": 100},
    "primes.wilton_classes": {"primes": [2, 3, 5]},
    "verify.run_checks": {"cases": ["q5"]},
}

_REPORT = constants.ConstantReport(**VALID["constants.ConstantReport"])


def label(value) -> str:
    """value for a report line: repr() fails on an int of more than 4300 digits."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an int of {value.bit_length()} bits"
    return repr(value)[:40]


def public_functions():
    """(qualified name, function) for every function in a module's __all__ that takes arguments."""
    for info in pkgutil.iter_modules(lrlab.__path__):
        module = importlib.import_module(f"lrlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj) and not isinstance(obj, type) and inspect.signature(obj).parameters:
                yield f"{info.name}.{name}", obj


def swept():
    """public_functions(), then the CONSTRUCTORS."""
    yield from public_functions()
    yield from CONSTRUCTORS.items()


def test_every_public_function_is_swept():
    assert sorted(name for name, _ in swept()) == sorted(VALID)


def test_each_hostile_value_alone_returns_or_raises_typed(monkeypatch):
    functions = list(swept())
    # None and {} select every row of table1 and run_checks, valid but slow:
    # the rows are stubbed, as the arguments are checked before any row runs
    monkeypatch.setattr(verify, "CHECKS", ())
    monkeypatch.setattr(constants, "second_order_constant", lambda case: _REPORT)
    bare = []
    for name, fn in functions:
        for param in inspect.signature(fn).parameters:
            for value in HOSTILE:
                kwargs = dict(VALID[name], **{param: value})
                try:
                    fn(**kwargs)
                except LrlabError as exc:
                    assert "\n" not in str(exc), (name, param, label(value))
                except Exception as exc:  # noqa: BLE001 - the sweep collects every bare one
                    bare.append(f"{name}({param}={label(value)}): {type(exc).__name__}: {exc}")
    assert bare == [], f"{len(bare)} bare exceptions:\n" + "\n".join(bare)


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_valid_arguments_are_valid(name):
    fn = dict(swept())[name]
    fn(**VALID[name])
