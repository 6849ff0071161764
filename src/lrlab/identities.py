"""Euler-identity cross checks.

Each case's Euler factorization, derived in multfn from the case's classes
and zero periods (CaseSpec.euler),

    T(s)^n = zeta(s)^(n tau) prod_chi L(s, chi)^e H(s),

is checked two ways, each a check of that derivation.

euler_identity_sides evaluates the log of both sides at an integer s >= 2:
n log T(s) from a truncated Dirichlet series, and the log of the right side
from the assembler that gives B_f (constants._log_g): log zeta and log L
from the Euler-Maclaurin kernel, and log H from exact prime sums over each
class (direct below P, Moebius inversion of L-values above).  Both sides
carry budgets and must agree within their combined budgets.

local_factor_gap compares the two sides prime by prime: n log of T's local
factor at p, in closed form from the zero period m0 of p, against the log
of the right side's local factor, summed over all the characters at once.
Both are power series in x = p^-s, and they are compared at a fixed x such
as 1/2, where each (c, a) of H moves the gap by |c log(1 - x^a)|.  At
x = p^-s a wrong exponent of a high-order factor would vanish below
rounding; B_f sees only the products c a.  The check is cheap enough for
q691's 345 characters.
"""

from __future__ import annotations

import math

import numpy as np

from . import _args
from .budget import ValueWithBudget
from .characters import _dlog_table, euler_phi
from .constants import _log_g
from .errors import InvalidArgumentError
from .lseries import _EPS, _log, zeta_value
from .multfn import M_ALWAYS, M_NEVER, class_index, dirichlet_series_truncated, get_case
from .primes import sieve_primes

__all__ = ["truncated_T", "euler_identity_sides", "local_factor_gap"]


def truncated_T(case, s: float, n_terms: int) -> ValueWithBudget:
    """T(s) truncated at N, budget = integral tail bound N^(1-s)/(s-1)."""
    value = dirichlet_series_truncated(case, s, n_terms)
    tail = float(n_terms) ** (1.0 - s) / (s - 1.0)
    return ValueWithBudget(value, tail + _EPS * (abs(value) + 1.0) * 4.0)


def euler_identity_sides(tag: str, s: int = 2, n_terms: int = 10**5):
    """n log T(s) and the log of the right side of the case's factorization
    identity, with budgets, at an integer s >= 2."""
    spec = get_case(tag)
    n = spec.euler.n
    lhs = n * _log(truncated_T(spec, s, n_terms))
    return lhs, _log_g(spec, s, 0, float(n * spec.tau) * _log(zeta_value(s)))


def local_factor_gap(case, x: float = 0.5, p_limit: int = 10**4) -> float:
    """Max |n log T_p(x) - log RHS_p(x)| over primes p <= p_limit, at a fixed
    0 < x < 1 standing for p^-s.

    T_p = sum_k f(p^k) x^k is 1/(1 - x) for m0 = NEVER, 1 for ALWAYS, and
    (1 - x^(m0-1))/((1 - x)(1 - x^m0)) otherwise.
    """
    spec = get_case(case)
    euler = spec.euler
    if not 0 < _args.real(x, "x") < 1:
        raise InvalidArgumentError(f"x must lie in (0, 1), got {_args.shown(x)}")
    p = sieve_primes(p_limit).primes
    idx = class_index(spec, p_limit)
    m0 = spec._m0s[idx]
    finite_m0 = np.where(m0 >= 2, m0, 2)
    log_1mx = math.log1p(-x)
    log_t = np.where(
        m0 == M_NEVER,
        -log_1mx,
        np.log1p(-(x ** (finite_m0 - 1))) - log_1mx - np.log1p(-(x**finite_m0)),
    )
    log_t[m0 == M_ALWAYS] = 0.0
    m = euler.modulus
    phi = euler_phi(m)
    j, w = np.array(euler.l_weights()).T
    dlog = _dlog_table(m)[p % m]
    # log |1 - chi^j(p) x| for every (p, j); chi^j(p) = 0 where m | p
    angle = 2.0 * np.pi * ((np.outer(dlog, j) % phi) / phi)
    log_l = 0.5 * np.log1p(x * (x - 2.0 * np.cos(angle)))
    log_l[dlog < 0] = 0.0
    rhs = -float(euler.n * spec.tau) * log_1mx - log_l @ w
    for k, factor in enumerate(euler.classes):
        rhs[idx == k] += sum(c * math.log1p(-(x**a)) for c, a in factor)
    return float(np.max(np.abs(euler.n * log_t - rhs)))
