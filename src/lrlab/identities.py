"""Euler-identity cross checks at real s > 1.

Each case's Euler factorization in multfn.CASES,

    T(s)^n = zeta(s)^(n tau) zeta(2s)^z prod_chi L(s, chi)^e H(s),

is checked at a real s > 1 by evaluating both sides: T(s) as a truncated
Dirichlet series, zeta and the L-series by truncated sums with tail bounds,
and H as a truncated Euler product with a tail bound.  Both sides carry
budgets and must agree within their combined budgets.

For q691 the T(s)^690 identity is checked locally: at each prime the local
factor of T to the 690th power must match the product of the right side's
local factors (zeta^689, the 690 character L-factors, and the four residual
products selected by nu(p)).
"""

from __future__ import annotations

import math

import numpy as np

from .budget import ValueWithBudget, csum
from .characters import generator_character
from .errors import UnsupportedCaseError
from .lseries import _EPS, l_series_truncated, zeta_real
from .multfn import M_NEVER, class_index, dirichlet_series_truncated, get_case, zero_period
from .primes import sieve_primes

__all__ = ["truncated_T", "euler_identity_sides", "local_factor_gap_q691"]


def truncated_T(case, s: float, n_terms: int) -> ValueWithBudget:
    """T(s) truncated at N, budget = integral tail bound N^(1-s)/(s-1)."""
    value = dirichlet_series_truncated(case, s, n_terms)
    tail = float(n_terms) ** (1.0 - s) / (s - 1.0)
    return ValueWithBudget(value, tail + _EPS * (abs(value) + 1.0) * 4.0)


def _euler_product(mask: np.ndarray, factors, s: float, cutoff: int) -> ValueWithBudget:
    """prod over masked primes of prod_i (1 - p^(-a_i s))^(c_i), with tail.

    ``factors`` is a sequence of (c_i, a_i).  The log-tail past the cutoff is
    bounded by sum_i |c_i| * 1.01 * cutoff^(1 - a_i s)/(a_i s - 1).
    """
    table = sieve_primes(cutoff)
    pf = table.primes[mask].astype(np.float64)
    log_parts = [c * np.log1p(-(pf ** (-a * s))) for c, a in factors]
    log_val = csum(np.concatenate(log_parts)) if log_parts else 0.0
    log_tail = sum(
        abs(c) * 1.01 * float(cutoff) ** (1.0 - a * s) / (a * s - 1.0) for c, a in factors
    )
    value = math.exp(log_val)
    return ValueWithBudget(value, value * math.expm1(log_tail + _EPS * (abs(log_val) + 1.0) * 8.0))


def _times_power(acc: ValueWithBudget, v: ValueWithBudget, e: int) -> ValueWithBudget:
    for _ in range(abs(e)):
        acc = acc * v if e > 0 else acc / v
    return acc


def euler_identity_sides(
    tag: str,
    s: float = 2.0,
    n_terms: int = 10**5,
    cutoff: int = 10**6,
    l_terms: int = 10**6,
):
    """Left and right side of the case's factorization identity, with budgets."""
    spec = get_case(tag)
    euler = spec.euler
    if euler is None:
        raise UnsupportedCaseError(f"no product identity registered for {tag!r}")
    t = truncated_T(spec, s, n_terms)
    lhs = _times_power(ValueWithBudget(1.0, 0.0), t, euler.n)
    rhs = _times_power(ValueWithBudget(1.0, 0.0), zeta_real(s), int(euler.n * spec.tau))
    if euler.zeta2:
        rhs = _times_power(rhs, zeta_real(2.0 * s), euler.zeta2)
    for chi, e in euler.l_exponents:
        l_val = l_series_truncated(chi, s, l_terms)
        rhs = _times_power(rhs, l_val if chi.is_real else l_val * l_val.conjugate(), e)
    for q, factor in euler.finite:
        for c, a in factor:
            rhs = rhs * (1.0 - float(q) ** (-a * s)) ** c
    idx = class_index(spec, cutoff)
    for j, factor in enumerate(euler.classes):
        if factor:
            rhs = rhs * _euler_product(idx == j, factor, s, cutoff)
    return lhs, rhs.real


def local_factor_gap_q691(s: float = 2.0, p_limit: int = 10**4) -> float:
    """Max |log LHS_p - log RHS_p| of the T(s)^690 identity over primes <= p_limit.

    LHS_p is the 690th power of T's local factor at p; RHS_p collects
    zeta^689, the character L-factors (odd powers up, even powers down),
    and the residual products selected by nu(p).
    """
    chi = generator_character(691, 3, 1)
    dlog = chi._dlog
    j = np.arange(690)
    odd_j = j % 2 == 1
    even_j = (j % 2 == 0) & (j >= 2)
    worst = 0.0
    for p in sieve_primes(p_limit).primes.tolist():
        x = float(p) ** (-s)
        m0 = zero_period("q691", p)
        if m0 == M_NEVER:  # p = 691, local factor 1/(1-x)
            lhs = -690.0 * math.log1p(-x)
        else:
            lhs = 690.0 * (
                math.log1p(-(x ** (m0 - 1))) - math.log1p(-x) - math.log1p(-(x**m0))
            )
        rhs = complex(-689.0 * math.log1p(-x))
        if p == 691:
            rhs += -math.log1p(-x)
            nu = None
        else:
            a = int(dlog[p % 691])
            z = x * np.exp(2j * np.pi * a * j / 690.0)
            logs = np.log1p(-z)
            # L(s, chi^1) and the ratio prod L(chi^(2j+1)) / L(chi^(2j))
            rhs += complex(-np.sum(logs[odd_j]) + np.sum(logs[even_j]))
            nu = 690 // math.gcd(a, 690)
        if nu is not None:
            if nu == 2:
                rhs += -345.0 * math.log1p(-(x**2))
            if nu == 1:
                rhs += 690.0 * (math.log1p(-(x**690)) - math.log1p(-(x**691)))
            if nu >= 4 and nu % 2 == 0:
                xh = x ** (nu / 2.0)
                rhs += (690.0 / nu) * (math.log1p(xh) - math.log1p(-xh))
            if 2 < nu < 691:
                rhs += 690.0 * (math.log1p(-(x ** (nu - 1))) - math.log1p(-(x**nu)))
        worst = max(worst, abs(lhs - rhs))
    return worst
