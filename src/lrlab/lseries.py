"""Numerical evaluation kernel.

Generalized Euler constants for arithmetic progressions,

    gamma_k(r, m) = lim_x { sum_{0<n<=x, n=r (m)} log^k n / n
                            - log^(k+1) x / (m (k+1)) },

are evaluated by compensated summation over the progression up to
X = max(1e6, 2000 m) followed by Euler-Maclaurin corrections through the
Bernoulli B4 term on g(t) = log^k(r + t m)/(r + t m); the budget is twice
the first omitted (B6) correction plus summation rounding.  For a
non-principal character chi mod m,

    L^(k)(1, chi) = (-1)^k sum_{r=1}^{m} chi(r) gamma_k(r, m).

Prime log-sums over a class of primes carry the explicit tail bound

    sum_{p > x} log p / (p^k - 1) <= x/(x^k - 1) * (-0.98 + 1.017 k/(k-1)),

valid for k > 1 and x >= 7481, a consequence of 0.98 x <= theta(x) <= 1.017 x
on that range; a class sum's tail is bounded by the all-primes tail.  The
same two-sided theta bounds give zeta'(2)/zeta(2) from the Lambda(n)/n^2
series with an explicit interval for the remainder past the cutoff.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .budget import ValueWithBudget, csum
from .characters import DirichletCharacter
from .errors import InvalidArgumentError, PreconditionError, ResourceLimitError
from .primes import sieve_primes

__all__ = [
    "ValueWithBudget",
    "gamma_k",
    "euler_gamma_value",
    "l_derivative_at_1",
    "closed_form_l_values",
    "prime_log_sum",
    "prime_tail_bound",
    "zeta_log_derivative_at_2",
    "zeta_real",
    "l_series_truncated",
    "THETA_LO",
    "THETA_HI",
    "THETA_X_MIN",
    "GAMMA_DESK_LIMIT",
    "GAMMA_K_MAX",
    "CLOSED_FORM_TAGS",
]

_EPS = float(np.finfo(np.float64).eps)

# 0.98 x <= theta(x) <= 1.017 x for x >= 7481.
THETA_LO = 0.98
THETA_HI = 1.017
THETA_X_MIN = 7481


# ---------------------------------------------------------------------------
# Generalized Euler constants
# ---------------------------------------------------------------------------

def _log_poly_deriv_coeffs(k: int, order: int) -> tuple[list[float], int]:
    """d^order/du^order [log^k u / u] as sum_j a_j log^j(u) u^(-q)."""
    a = [0.0] * k + [1.0]
    q = 1
    for _ in range(order):
        a = [((j + 1) * a[j + 1] if j + 1 <= k else 0.0) - q * a[j] for j in range(k + 1)]
        q += 1
    return a, q


def _g_derivative(u: float, lnu: float, k: int, order: int, m: int) -> float:
    """d^order/dt^order of log^k(r + t m)/(r + t m) at r + t m = u."""
    a, q = _log_poly_deriv_coeffs(k, order)
    poly = math.fsum(a[j] * lnu**j for j in range(k + 1))
    return (m**order) * poly / u**q


# Desk limit on the terms of one gamma_k batch (each float64 work array then
# stays at or below 80 MB); it allows depth <= 7 at m = 691, <= 10 for m <= 500.
GAMMA_DESK_LIMIT = 10**7
GAMMA_K_MAX = 100  # log^k n < 1e121 for n <= 1e7 terms: nothing overflows


@lru_cache(maxsize=32)
def _gamma_batch(m: int, k: int, depth: float) -> tuple[np.ndarray, np.ndarray]:
    """gamma_k(r, m) and budgets for r = 1..m (r = m is the zero class)."""
    if not 0 <= k <= GAMMA_K_MAX:
        raise InvalidArgumentError(f"derivative order must lie in 0..{GAMMA_K_MAX}, got {k}")
    terms = depth * max(10**6, 2000 * m)
    if not terms <= GAMMA_DESK_LIMIT:
        raise ResourceLimitError(
            f"gamma_k desk limit is {GAMMA_DESK_LIMIT} terms, depth {depth} asks for {terms:.4g}"
        )
    X = int(terms)
    if X < m:
        raise InvalidArgumentError(f"depth {depth} leaves cutoff {X} below the modulus {m}")
    n = np.arange(1, X + 1, dtype=np.float64)
    w = np.log(n) ** k / n if k else 1.0 / n
    vals = np.empty(m)
    buds = np.empty(m)
    for r in range(1, m + 1):
        sl = np.ascontiguousarray(w[r - 1 :: m])
        s = csum(sl)
        j_last = (X - r) // m
        u = float(r + j_last * m)
        lnu = math.log(u)
        norm = lnu ** (k + 1) / (m * (k + 1))
        g0 = lnu**k / u
        g1 = _g_derivative(u, lnu, k, 1, m)
        g3 = _g_derivative(u, lnu, k, 3, m)
        g5 = _g_derivative(u, lnu, k, 5, m)
        val = s - norm - 0.5 * g0 - g1 / 12.0 + g3 / 720.0
        trunc = 2.0 * abs(g5) / 30240.0
        # log^k n / n is nonnegative, so s bounds the summand magnitudes
        buds[r - 1] = trunc + _EPS * (s + abs(norm) + abs(val) + 1.0)
        vals[r - 1] = val
    vals.flags.writeable = False
    buds.flags.writeable = False
    return vals, buds


def gamma_k(r: int, m: int, k: int = 0, depth: float = 1.0) -> ValueWithBudget:
    """Generalized Euler constant of the progression r mod m, weight log^k n / n.

    Residues are taken in 1..m with r = m (equivalently r = 0) meaning the
    class of multiples of m; gamma_0(0, 1) is Euler's constant.
    """
    if m < 1:
        raise InvalidArgumentError(f"modulus must be >= 1, got {m}")
    if r == 0:
        r = m
    if not 1 <= r <= m:
        raise InvalidArgumentError(f"residue {r} outside 0..{m}")
    vals, buds = _gamma_batch(m, k, depth)
    return ValueWithBudget(float(vals[r - 1]), float(buds[r - 1]))


@lru_cache(maxsize=8)
def euler_gamma_value(depth: float = 1.0) -> ValueWithBudget:
    """Euler's constant as gamma_0(0, 1), with budget."""
    return gamma_k(0, 1, 0, depth)


# ---------------------------------------------------------------------------
# L-function derivatives at s = 1
# ---------------------------------------------------------------------------

def l_derivative_at_1(chi: DirichletCharacter, k: int = 0, depth: float = 1.0) -> ValueWithBudget:
    """L^(k)(1, chi) = (-1)^k sum_{r=1}^m chi(r) gamma_k(r, m), chi non-principal."""
    if chi.principal:
        raise InvalidArgumentError("L(s, chi) diverges at s = 1 for principal chi")
    m = chi.modulus
    vals, buds = _gamma_batch(m, k, depth)
    # chi(r) for r = 1..m; chi(m) = chi(0) = 0 off the unit group
    cvals = np.concatenate([chi.values[1:], chi.values[:1]])
    terms = cvals * vals
    sign = -1.0 if k % 2 else 1.0
    value = sign * complex(csum(terms.real), csum(terms.imag))
    absc = np.abs(cvals)
    budget = float(np.dot(absc, buds)) + _EPS * float(np.sum(np.abs(terms))) * 4.0
    return ValueWithBudget(value, budget)


CLOSED_FORM_TAGS = ("chi5", "chi_minus7", "chi_minus23", "chi_c_pair_mod5")


def closed_form_l_values(tag: str) -> float:
    """Closed forms: L(1,chi_5), L(1,chi_-7), L(1,chi_-23), L(1,chi_c)L(1,chi_c~)."""
    if tag == "chi5":
        return math.log((3.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0)
    if tag == "chi_minus7":
        return math.pi / math.sqrt(7.0)
    if tag == "chi_minus23":
        return 3.0 * math.pi / math.sqrt(23.0)
    if tag == "chi_c_pair_mod5":
        return 2.0 * math.pi**2 / 25.0
    raise InvalidArgumentError(f"unknown closed-form tag {tag!r}; expected one of {CLOSED_FORM_TAGS}")


# ---------------------------------------------------------------------------
# Prime log-sums with explicit tails
# ---------------------------------------------------------------------------

def prime_tail_bound(k: float, x: float) -> float:
    """Upper bound for sum_{p > x} log p / (p^k - 1); needs k > 1, x >= 7481."""
    if k <= 1:
        raise PreconditionError(f"tail bound needs k > 1, got {k}")
    if x < THETA_X_MIN:
        raise PreconditionError(f"tail bound needs x >= {THETA_X_MIN}, got {x}")
    r = math.exp(-k * math.log(x))  # x^(-k), 0 when it underflows
    return x * r / (1.0 - r) * (-THETA_LO + THETA_HI * k / (k - 1.0))


def prime_log_sum(mask, k: int, cutoff: int) -> ValueWithBudget:
    """sum_{p <= cutoff, p in class} log p / (p^k - 1) with the class tail budget.

    ``mask`` is None (all primes) or a boolean mask aligned with
    sieve_primes(cutoff).primes.  Each term is log p r/(1 - r) with
    r = p^(-k); primes with p^k > e^690 are left out, so r never underflows.
    Each term left out is below 1e-295, and all of them together are far
    below the rounding allowance in the budget.
    """
    if k < 2:
        raise PreconditionError(f"prime_log_sum needs k >= 2, got {k}")
    cutoff = int(cutoff)
    if cutoff < THETA_X_MIN:
        raise PreconditionError(f"tail budget needs cutoff >= {THETA_X_MIN}, got {cutoff}")
    table = sieve_primes(cutoff)
    # an int key: a float one would convert the whole prime array
    top = cutoff if k * math.log(cutoff) <= 690.0 else int(math.exp(690.0 / k))
    n = int(np.searchsorted(table.primes, top, side="right"))
    keep = slice(n) if mask is None else np.asarray(mask, dtype=bool)[:n]
    r = table.primes[:n][keep].astype(np.float64) ** -float(k)
    value = csum(table.logs[:n][keep] * r / (1.0 - r))
    budget = prime_tail_bound(k, float(cutoff)) + _EPS * (value + 1.0)
    return ValueWithBudget(value, budget)


def zeta_log_derivative_at_2(cutoff: int = 10**7) -> ValueWithBudget:
    """zeta'(2)/zeta(2) = -sum_n Lambda(n)/n^2, with a theta-corrected tail.

    The partial sum over prime powers p^k with p <= N telescopes to
    sum_{p <= N} log p/(p^2 - 1); the remainder over p > N is pinned to
    [1.96/N - theta(N)/N^2, 2.034/N - theta(N)/N^2] by the two-sided
    theta(x)/x bounds, with theta(N) summed exactly from the sieve.
    """
    cutoff = int(cutoff)
    if cutoff < THETA_X_MIN:
        raise PreconditionError(f"cutoff must be >= {THETA_X_MIN}, got {cutoff}")
    table = sieve_primes(cutoff)
    pf = table.primes.astype(np.float64)
    s = csum(table.logs / (pf * pf - 1.0))
    theta = csum(table.logs)
    n = float(cutoff)
    slack = 2.0 * math.log(n) / n**3  # log p/(p^2(p^2-1)) remainder past N
    r_lo = 2.0 * THETA_LO / n - theta / n**2
    r_hi = 2.0 * THETA_HI / n - theta / n**2 + slack
    mid = 0.5 * (r_lo + r_hi)
    half = 0.5 * (r_hi - r_lo)
    value = -(s + mid)
    budget = half + _EPS * (s + theta / n**2 + 1.0) * 4.0
    return ValueWithBudget(value, budget)


# ---------------------------------------------------------------------------
# Direct Dirichlet series at real s > 1 (plumbing for the identity checks)
# ---------------------------------------------------------------------------

def zeta_real(s: float, n_terms: int = 100_000) -> ValueWithBudget:
    """zeta(s) for real s > 1 by Euler-Maclaurin through the B4 term."""
    if s <= 1:
        raise PreconditionError(f"zeta_real needs s > 1, got {s}")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    partial = csum(n ** (-s))
    N = float(n_terms)
    tail = N ** (1 - s) / (s - 1) - 0.5 * N ** (-s) + s / 12.0 * N ** (-s - 1)
    b4 = s * (s + 1) * (s + 2) / 720.0 * N ** (-s - 3)
    value = partial + tail - b4
    b6 = s * (s + 1) * (s + 2) * (s + 3) * (s + 4) / 30240.0 * N ** (-s - 5)
    return ValueWithBudget(value, 2.0 * b6 + _EPS * (partial + 1.0) * 4.0)


def l_series_truncated(chi: DirichletCharacter, s: float, n_terms: int = 10**6) -> ValueWithBudget:
    """sum_{n <= N} chi(n)/n^s with an Abel-summation tail budget m * N^(-s)."""
    if s <= 1:
        raise PreconditionError(f"l_series_truncated needs s > 1, got {s}")
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    cv = np.tile(chi.values, n_terms // chi.modulus + 2)[1 : n_terms + 1]
    terms = cv * n ** (-s)
    value = complex(csum(terms.real), csum(terms.imag))
    budget = chi.modulus * float(n_terms) ** (-s) + _EPS * float(np.sum(np.abs(terms))) * 4.0
    return ValueWithBudget(value, budget)
