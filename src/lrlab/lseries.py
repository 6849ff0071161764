"""Numerical evaluation kernel.

Generalized Euler constants for arithmetic progressions,

    gamma_k(r, m) = lim_x { sum_{0<n<=x, n=r (m)} log^k n / n
                            - log^(k+1) x / (m (k+1)) },

are computed for all residues r = 1..m at once.  With g(t) = log^k u / u at
u = r + t m, the first T terms (t < T) are summed directly and exactly per
residue, and the rest by Euler-Maclaurin at U = r + T m:

    gamma_k(r, m) = sum_{t<T} g(t) - log^(k+1) U / (m (k+1)) + g(T)/2
                    - sum_{j=1}^{K} B_2j/(2j)! g^(2j-1)(T) + R,   K = 7.

Every derivative is m^i d^i/du^i [log^k u / u] = m^i P_i(log u) / u^(i+1)
with an integer polynomial P_i.  Where g^(2K+2) has one sign on [T, oo),
|R| is at most twice the first omitted term, 2 |B_16|/16! |g^(15)(T)|.  That
sign condition is checked in exact arithmetic: P_16 is Taylor-shifted to a
rational L0 <= log U, and no sign change among its coefficients leaves no
root past L0 (Descartes' rule).  U_k is the smallest u that passes, and
T = max(40, ceil((U_k - 1)/m)); U_k is 104 for k = 2 and 3.7e6 for k = 12.
GAMMA_K_MAX is the largest k with U_k <= 1e7, the most terms one batch sums.
With T >= 40 the remainder is below 1e-22 (2e-26 for k <= 2), so the rest
of the budget is rounding: a few ulps of the summed magnitudes.  For a
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

import itertools
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
    "class_primes",
    "prime_log_sum",
    "prime_tail_bound",
    "zeta_log_derivative_at_2",
    "zeta_real",
    "l_series_truncated",
    "THETA_LO",
    "THETA_HI",
    "THETA_X_MIN",
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

# B_2j/(2j)! for j = 1..K+1 (B_2j = p/q, each quotient correctly rounded):
# K = 7 Euler-Maclaurin corrections and the first omitted one
_BERNOULLI_2J = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
_EM_COEFFS = tuple(p / (q * math.factorial(2 * j)) for j, (p, q) in enumerate(_BERNOULLI_2J, 1))
_EM_TERMS = len(_EM_COEFFS) - 1
_DIRECT_MIN = 40  # direct terms per residue class, at least
# One batch sums at most this many terms; it caps the modulus at 2.5e5 and,
# through U_k, the derivative order.
_BATCH_MAX = 10**7


def _log_poly_deriv_coeffs(k: int, order: int) -> list[int]:
    """d^order/du^order [log^k u / u] as sum_j a_j log^j(u) u^(-order-1), integer a_j."""
    a = [0] * k + [1]
    for q in range(1, order + 1):
        a = [((j + 1) * a[j + 1] if j < k else 0) - q * a[j] for j in range(k + 1)]
    return a


def _remainder_one_signed(k: int, u: int) -> bool:
    """True if d^(2K+2)/du^(2K+2) [log^k u / u] has one sign on [u, oo).

    Its polynomial P(L) = sum_j a_j L^j is Taylor-shifted to a rational
    L0 = l0 / 2^20 <= log u; when the coefficients of P(L0 + y) show no
    sign change, P has no root y > 0 (Descartes' rule of signs).  With
    L = (l0 + z) / 2^20, 2^(20k) P is an integer polynomial in z whose
    coefficients have the signs of those in y, so the shift is exact.
    """
    a = _log_poly_deriv_coeffs(k, 2 * _EM_TERMS + 2)
    c = [x << (20 * (k - j)) for j, x in enumerate(a)]
    l0 = math.floor(math.log(u) * 2**20) - 1
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            c[j] += l0 * c[j + 1]
    signs = [x > 0 for x in c if x]
    return all(signs) or not any(signs)


# The largest k such that the check passes at u = 1e7 for every order up to k.
GAMMA_K_MAX = next(k for k in itertools.count() if not _remainder_one_signed(k + 1, _BATCH_MAX))


@lru_cache(maxsize=None)
def _em_start(k: int) -> int:
    """U_k: the smallest u >= 1 from which the remainder check passes.

    The check is monotone in u: shifting coefficients of one sign further
    right keeps them of one sign.
    """
    lo, hi = 0, _BATCH_MAX  # the check passes at hi for k <= GAMMA_K_MAX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _remainder_one_signed(k, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _direct_terms(m: int, k: int) -> int:
    """T: at least 40 terms per residue, and U = r + T m >= U_k for every r >= 1."""
    return max(_DIRECT_MIN, -(-(_em_start(k) - 1) // m))


def _g_derivative(u: np.ndarray, lnu: np.ndarray, k: int, order: int, m: int):
    """d^order/dt^order of log^k(r + t m)/(r + t m) at r + t m = u, and the
    same with every polynomial coefficient replaced by its absolute value."""
    a = np.array(_log_poly_deriv_coeffs(k, order), dtype=np.float64)
    scale = (m / u) ** order / u
    poly = np.polynomial.polynomial.polyval
    return poly(lnu, a) * scale, poly(lnu, np.abs(a)) * scale


@lru_cache(maxsize=32)
def _gamma_batch(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma_k(r, m) and budgets for r = 1..m (r = m is the zero class)."""
    if not 0 <= k <= GAMMA_K_MAX:
        raise InvalidArgumentError(f"derivative order must lie in 0..{GAMMA_K_MAX}, got {k}")
    direct = _direct_terms(m, k)
    if m * direct > _BATCH_MAX:
        raise ResourceLimitError(
            f"a gamma_{k} batch mod {m} needs {m * direct:.4g} terms, more than {_BATCH_MAX:.0e}"
        )
    r = np.arange(1, m + 1, dtype=np.float64)
    n = r[:, None] + m * np.arange(direct, dtype=np.float64)
    w = np.log(n) ** k / n if k else 1.0 / n
    s = np.array([csum(row) for row in w])
    u = r + direct * m
    lnu = np.log(u)
    norm = lnu ** (k + 1) / (m * (k + 1))
    g0 = lnu**k / u
    vals = s - norm + 0.5 * g0
    absum = s + norm + 0.5 * g0  # s, norm and g0 are nonnegative
    for j, coef in enumerate(_EM_COEFFS[:_EM_TERMS], 1):
        g, g_abs = _g_derivative(u, lnu, k, 2 * j - 1, m)
        vals -= coef * g
        absum += abs(coef) * g_abs
    # g^(2K+2) has one sign on [U, oo), so the remainder is at most twice the
    # first omitted term.  Rounding, with log and powers good to one ulp: the
    # summands, norm and g0 are off by at most k + 3 ulps (k + 1 from the
    # log and its power, the divisions, the row sum), the corrections (below
    # 1% of s) by 2k + 10, and the additions that form vals by 8 ulps of |vals|.
    g = _g_derivative(u, lnu, k, 2 * _EM_TERMS + 1, m)[0]
    buds = 2.0 * abs(_EM_COEFFS[-1] * g) + _EPS * ((k + 3) * absum + 8.0 * np.abs(vals))
    vals.flags.writeable = False
    buds.flags.writeable = False
    return vals, buds


def gamma_k(r: int, m: int, k: int = 0) -> ValueWithBudget:
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
    vals, buds = _gamma_batch(m, k)
    return ValueWithBudget(float(vals[r - 1]), float(buds[r - 1]))


def euler_gamma_value() -> ValueWithBudget:
    """Euler's constant as gamma_0(0, 1), with budget."""
    return gamma_k(0, 1, 0)


# ---------------------------------------------------------------------------
# L-function derivatives at s = 1
# ---------------------------------------------------------------------------

def l_derivative_at_1(chi: DirichletCharacter, k: int = 0) -> ValueWithBudget:
    """L^(k)(1, chi) = (-1)^k sum_{r=1}^m chi(r) gamma_k(r, m), chi non-principal."""
    if chi.principal:
        raise InvalidArgumentError("L(s, chi) diverges at s = 1 for principal chi")
    m = chi.modulus
    vals, buds = _gamma_batch(m, k)
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


def _largest_term_prime(k: int, cutoff: int) -> int:
    """prime_log_sum reads the primes up to this bound: p <= cutoff, p^k <= e^690."""
    return cutoff if k * math.log(cutoff) <= 690.0 else int(math.exp(690.0 / k))


def class_primes(mask, cutoff: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes of a class and their logs, as far as prime_log_sum reads
    them for exponents >= k.  ``mask`` is None (all primes) or a boolean
    mask aligned with sieve_primes(cutoff).primes."""
    table = sieve_primes(cutoff)
    # an int key: a float one would convert the whole prime array
    n = int(np.searchsorted(table.primes, _largest_term_prime(k, cutoff), side="right"))
    keep = slice(n) if mask is None else np.asarray(mask, dtype=bool)[:n]
    return table.primes[:n][keep], table.logs[:n][keep]


def prime_log_sum(members, k: int, cutoff: int) -> ValueWithBudget:
    """sum_{p <= cutoff, p in class} log p / (p^k - 1) with the class tail budget.

    ``members`` is None (all primes), a boolean mask aligned with
    sieve_primes(cutoff).primes, or what class_primes returns for one; a
    caller that sums one class for several k gathers it once that way.
    Each term is log p r/(1 - r) with r = p^(-k); primes with p^k > e^690
    are left out, so r never underflows.  Each term left out is below
    1e-295, and all of them together are far below the rounding allowance
    in the budget.
    """
    if k < 2:
        raise PreconditionError(f"prime_log_sum needs k >= 2, got {k}")
    cutoff = int(cutoff)
    if cutoff < THETA_X_MIN:
        raise PreconditionError(f"tail budget needs cutoff >= {THETA_X_MIN}, got {cutoff}")
    primes, logs = members if isinstance(members, tuple) else class_primes(members, cutoff, k)
    n = int(np.searchsorted(primes, _largest_term_prime(k, cutoff), side="right"))
    r = primes[:n].astype(np.float64) ** -float(k)
    value = csum(logs[:n] * r / (1.0 - r))
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
