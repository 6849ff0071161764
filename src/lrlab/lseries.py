"""Numerical evaluation kernel.

Progression sums.  For a modulus m, a weight log^k n n^(-s) and all
residues r = 1..m at once, one Euler-Maclaurin batch gives

    s = 1:  gamma_k(r, m) = lim_x { sum_{0<n<=x, n=r (m)} log^k n / n
                                    - log^(k+1) x / (m (k+1)) },
    s > 1:  H_k(r, m, s) = sum_{n>=1, n=r (m)} log^k n n^(-s).

With g(t) = log^k u u^(-s) at u = r + t m, the first T = 40 terms
(t < T) are summed directly per residue (exactly rounded, by math.fsum), and
the rest by Euler-Maclaurin at U = r + T m:

    sum_{t>=T} g(t) = I + g(T)/2 - sum_{j=1}^{K} B_2j/(2j)! g^(2j-1)(T) + R,   K = 7,

where I = (1/m) int_U^oo log^k u u^(-s) du for s > 1, and
I = -log^(k+1) U/(m (k+1)) takes the place of the divergent integral at
s = 1.  Every derivative is m^i d^i/du^i [log^k u u^(-s)] = m^i P_i(log u)
/ u^(s+i) with a polynomial P_i whose coefficients are exact (integers for
integer s).  The remainder needs no sign condition (DLMF 2.10(i); T. M.
Apostol, Amer. Math. Monthly 106, 1999): |R| <= |B_14|/14! int_T^oo |g^(14)|,
which with |P_14| <= sum_j |a_j| log^j u is in closed form (as is I at
s > 1).  For k <= GAMMA_K_MAX = 12 and m <= 691 it is below 1.1e-13 (1.1e-22
for k <= 2 at s = 1): the budget is a few ulps of the summed magnitudes.
For a character chi mod m,

    L^(k)(1, chi) = (-1)^k sum_{r=1}^{m} chi(r) gamma_k(r, m)   (chi non-principal),
    L^(k)(s, chi) = (-1)^k sum_{r=1}^{m} chi(r) H_k(r, m, s)      (s > 1),

and one inverse DFT over the discrete-log order of the residues gives them
for every character mod m at once: _l_table holds L^(k)(s, chi^j) for all j,
one table per (m, s, k), and every L-value is read from it.  _log_l_table
holds -L'/L or log L from it, with a budget per character.

Prime sums over residue classes.  prime_class_sum sums log p/(p^s - 1) or
-log(1 - p^(-s)) over the primes in a union of residue classes mod m,
s >= 2 (s >= 1 over the primes that divide m), to full precision.  The
primes p <= P = 1000 (the prime divisors of every modulus m <= 691 among
them) are summed directly.  The rest come from L-values by Moebius
inversion (H. Cohen, "High precision computation of Hardy-Littlewood
constants", 1991; Ettahri, Ramare and Surel, arXiv:1908.06808): with
L_P(s, chi) = L(s, chi) prod_{p<=P} (1 - chi(p) p^(-s)), g the generator of
(Z/mZ)^* and b the discrete log of the residue,

    sum_{p>P, p=g^b} log p p^(-s) = sum_k mu(k) sum_{c: kc=b (phi)} G_ks(c),
    G_s(c) = sum_{p>P, e>=1, p^e=g^c} log p p^(-es)
           = (1/phi) sum_chi conj(chi(g^c)) (-L_P'/L_P)(s, chi),

and the same with p^(-es)/e, log L_P and mu(k)/k for the sums of p^(-s).
Summing over s = j a, j >= 1, gives the sums with 1/(p^a - 1) and
-log(1 - p^(-a)).  G_s is one forward DFT of -L'/L(s, chi) over all
characters, less the prime powers of p <= P, which are summed exactly per
class.  Only s = n a <= SIGMA_MAX (= 8) is evaluated.  Every dropped
(n, k) term is bounded through B(s) = P^(1-s) (log P/(s-1) + 1/(s-1)^2)
>= sum_{n>P} log n n^(-s) (Lambda(n) <= log n; no theta bound), which
gives a remainder below 1e-22.

The same inversion runs over any classes with a power map c -> c^k:
frobenius_class_sum runs it over the Frobenius classes S1, S2, S3
(transpositions, 3-cycles, the identity) of Gal(H/Q) = S_3, H the Hilbert
class field of Q(sqrt(-23)), which are Wilton's classes of the primes
p != 23.  There G_s(C) = (|C|/6) sum_chi chi(C) (-L_P'/L_P)(s, chi) (or
the same with log L_P) over
the characters 1, chi_-23 and rho, (1, 1, 1), (-1, 1, 1) and (0, -1, 2) on
(S1, S2, S3).  L(s, rho) = (Z_[1,1,6](s) - Z_[2,1,3](s))/2, the L-function
of eta(z) eta(23 z), comes from the Epstein zeta functions of the reduced
forms of discriminant -23 by the Chowla-Selberg formula (Chowla and
Selberg, J. reine angew. Math. 227, 1967).  23 ramifies: its Euler factor
is 1/(1 - 23^-s) in zeta and L(s, rho), and 1 in L(s, chi_-23).

zeta'(2)/zeta(2) is -H_1(1, 1, 2)/H_0(1, 1, 2).
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _args
from .budget import ValueWithBudget
from .characters import GENERATORS as _GENERATORS, DirichletCharacter, _dlog_table, euler_phi
from .errors import InvalidArgumentError, PreconditionError
from .primes import sieve_primes, wilton_classes

__all__ = [
    "ValueWithBudget",
    "gamma_k",
    "euler_gamma_value",
    "l_derivative_at_1",
    "l_value",
    "zeta_value",
    "closed_form_l_values",
    "prime_class_sum",
    "frobenius_class_sum",
    "GAMMA_K_MAX",
    "MOBIUS_P",
    "SIGMA_MAX",
    "CLOSED_FORM_TAGS",
]

_EPS = float(np.finfo(np.float64).eps)

# ---------------------------------------------------------------------------
# Progression sums: generalized Euler constants and Dirichlet series
# ---------------------------------------------------------------------------

# B_2j/(2j)! for the K = 7 Euler-Maclaurin corrections (B_2j = p/q, each
# quotient correctly rounded); the last one also scales the remainder bound
_BERNOULLI_2J = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))
_EM_COEFFS = tuple(p / (q * math.factorial(2 * j)) for j, (p, q) in enumerate(_BERNOULLI_2J, 1))
_EM_ORDER = 2 * len(_EM_COEFFS)  # 2K = 14, the derivative order in the remainder
_DIRECT = 40  # direct terms per residue class
# One batch sums at most 1e7 terms, which caps the modulus at 2.5e5.
_BATCH_MODULUS_MAX = 10**7 // _DIRECT
# Derivative orders served: 0..12.  gamma_12(0, 1)'s budget is already 1e-4 of its value.
GAMMA_K_MAX = 12


def _exact(s, float_range: bool = False):
    """A finite real s (_args.real; nan or an infinity is a PreconditionError)
    as an int, or as a Fraction when it is not integral (exact for floats)."""
    f = Fraction(_args.real(s, "s", PreconditionError, float_range))
    return f.numerator if f.denominator == 1 else f


def _log_poly_deriv_coeffs(k: int, order: int, s=1) -> list:
    """d^order/du^order [log^k u u^(-s)] as sum_j a_j log^j(u) u^(-s-order).

    The a_j are exact: integers for integer s, fractions otherwise.
    """
    a = [0] * k + [1]
    for q in range(order):
        a = [((j + 1) * a[j + 1] if j < k else 0) - (s + q) * a[j] for j in range(k + 1)]
    return a


def _log_power_integral(u: np.ndarray, lnu: np.ndarray, j: int, sigma: float) -> np.ndarray:
    """int_U^oo log^j u u^(-sigma) du
    = U^(1-sigma) sum_{i<=j} j!/(j-i)! log^(j-i) U/(sigma-1)^(i+1), sigma > 1."""
    poly = sum(math.perm(j, i) * lnu ** (j - i) / (sigma - 1.0) ** (i + 1) for i in range(j + 1))
    return poly * u ** (1.0 - sigma)


def _g_derivative(u: np.ndarray, lnu: np.ndarray, k: int, order: int, m: int, s=1):
    """d^order/dt^order of log^k(r + t m) (r + t m)^(-s) at r + t m = u, and
    the same with every polynomial coefficient replaced by its absolute value."""
    a = np.array(_log_poly_deriv_coeffs(k, order, s), dtype=np.float64)
    scale = (m / u) ** order / u ** float(s)
    poly = np.polynomial.polynomial.polyval
    return poly(lnu, a) * scale, poly(lnu, np.abs(a)) * scale


def _em_remainder_bound(u: np.ndarray, lnu: np.ndarray, k: int, m: int, s=1) -> np.ndarray:
    """|R| <= |B_14|/14! int_T^oo |g^(14)(t)| dt for the tail at U = r + T m >= 1
    (the periodic Bernoulli function is at most |B_14|), which with
    h^(14)(u) = sum_j a_j log^j u u^(-s-14) is at most
    |B_14|/14! m^13 sum_j |a_j| int_U^oo log^j u u^(-s-14) du; the factor
    1.01 covers the rounding of the bound itself."""
    try:
        a = [float(x) for x in _log_poly_deriv_coeffs(k, _EM_ORDER, s)]
    except OverflowError:  # |a_k| = s (s+1) ... (s+13) is the largest coefficient of the batch
        raise PreconditionError("s is too large (above about 1.04e22) for the float coefficients") from None
    sigma = float(s) + _EM_ORDER
    tail = sum(abs(x) * _log_power_integral(u, lnu, j, sigma) for j, x in enumerate(a) if x)
    return 1.01 * abs(_EM_COEFFS[-1]) * float(m) ** (_EM_ORDER - 1) * tail


@np.errstate(over="ignore")  # n^s and U^s overflow at large s; their reciprocals, 0, are right
def _em_sums(m: int, k: int, s) -> tuple[np.ndarray, np.ndarray]:
    """gamma_k(r, m) (s = 1) or H_k(r, m, s) (s > 1), and budgets, for r = 1..m
    (r = m is the zero class), m <= _BATCH_MODULUS_MAX."""
    r = np.arange(1, m + 1, dtype=np.float64)
    u = r + _DIRECT * m
    lnu = np.log(u)
    remainder = _em_remainder_bound(u, lnu, k, m, s)  # first: it rejects an s too large for floats
    sf = float(s)
    n = r[:, None] + m * np.arange(_DIRECT, dtype=np.float64)
    w = np.log(n) ** k / n**sf if k else 1.0 / n**sf
    total = np.array([math.fsum(row.tolist()) for row in w])
    if s == 1:
        integral = -(lnu ** (k + 1)) / (m * (k + 1))
    else:
        integral = _log_power_integral(u, lnu, k, sf) / m
    g0 = lnu**k / u**sf
    vals = total + integral + 0.5 * g0
    absum = total + np.abs(integral) + 0.5 * g0  # total and g0 are nonnegative
    for j, coef in enumerate(_EM_COEFFS, 1):
        g, g_abs = _g_derivative(u, lnu, k, 2 * j - 1, m, s)
        vals -= coef * g
        absum += abs(coef) * g_abs
    # Rounding, with log and powers good to one ulp: the summands, the
    # integral term and g0 are off by at most k + 3 ulps (k + 1 from the log
    # and its power, the power of n or U, the divisions, the exactly rounded
    # row sum), the corrections (below 1% of the total) by 2k + 10, and the
    # additions that form vals by 8 ulps of |vals|.
    buds = remainder + _EPS * ((k + 3) * absum + 8.0 * np.abs(vals))
    # An entry below 2^-1022 at s > 1 lost its terms: the first nonzero one, at
    # n0 = r (r + m for r = 1, k >= 1), is as small or overflowed, so s > 50
    # (n0 <= 2m <= 5e5), and the term at n = n0 + t m >= n0 (1 + t/2) is at most
    # (n0/n)^(s - 2k) times it.  The sum lies below 2 log^k n0 n0^-s, in log space.
    lost = (np.abs(vals) < sys.float_info.min) & (s != 1)
    n0 = np.where((r == 1) & (k > 0), r + m, r)[lost]
    bound = 2.0 * np.exp(k * np.log(np.log(n0)) - sf * np.log(n0))
    buds[lost] = np.maximum(buds[lost], np.maximum(bound, math.ulp(0.0)))
    vals.flags.writeable = buds.flags.writeable = False
    return vals, buds


@lru_cache(maxsize=32)
def _gamma_batch(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma_k(r, m) and budgets for r = 1..m (r = m is the zero class)."""
    return _em_sums(m, k, 1)


@lru_cache(maxsize=128)
def _series_batch(m: int, k: int, s) -> tuple[np.ndarray, np.ndarray]:
    """H_k(r, m, s) and budgets for r = 1..m, s > 1 exact (_exact), k checked by the caller."""
    if not s > 1:
        raise PreconditionError(f"the Dirichlet series need s > 1, got {_args.shown(s)}")
    return _em_sums(m, k, s)


def gamma_k(r: int, m: int, k: int = 0) -> ValueWithBudget:
    """Generalized Euler constant of the progression r mod m, weight log^k n / n.

    Residues are taken in 1..m with r = m (equivalently r = 0) meaning the
    class of multiples of m; gamma_0(0, 1) is Euler's constant.  A batch
    sums m * 40 terms, at most 1e7: a larger m is a ResourceLimitError.
    """
    m = _args.integer(m, "modulus m", 1, _BATCH_MODULUS_MAX, "the gamma_k batch modulus")
    r = _args.integer(r, "residue r", 0, m) or m
    vals, buds = _gamma_batch(m, _args.integer(k, "derivative order k", 0, GAMMA_K_MAX))
    return ValueWithBudget(float(vals[r - 1]), float(buds[r - 1]))


def euler_gamma_value() -> ValueWithBudget:
    """Euler's constant as gamma_0(0, 1), with budget."""
    return gamma_k(0, 1, 0)


# ---------------------------------------------------------------------------
# L-functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _l_table(m: int, s, k: int) -> tuple[np.ndarray, float]:
    """L^(k)(s, chi^j) for j = 0..phi-1, chi(g) = exp(2 pi i/phi), and one
    budget for every j: at s = 1 from the gamma_k batch (the principal j = 0
    entry is then not an L-value), or at an exact s > 1 from the H_k batch.

    With the residues r = g^a ordered by a, sum_r chi^j(r) vals[r-1] is one
    inverse DFT.  The budget is the batch budgets plus 16 ulps of the summed
    magnitudes for the transform.
    """
    vals, buds = _gamma_batch(m, k) if s == 1 else _series_batch(m, k, s)
    dlog = _dlog_table(m)[np.arange(1, m + 1) % m]
    unit = dlog >= 0
    seq = np.zeros(euler_phi(m))
    seq[dlog[unit]] = vals[unit]
    budget = float(np.sum(buds[unit])) + _EPS * float(np.sum(np.abs(seq))) * 16.0
    table = (-len(seq) if k % 2 else len(seq)) * np.fft.ifft(seq)
    table.flags.writeable = False
    return table, budget


@lru_cache(maxsize=128)
def _log_l_table(m: int, s, derivative: int) -> tuple[np.ndarray, np.ndarray]:
    """-L'/L(s, chi^j) (derivative 1) or log L(s, chi^j) (derivative 0) for
    j = 0..phi-1, with a budget per j that includes the rounding of the
    division or the log.  At s = 1 the principal j = 0 holds nan."""
    l0, b0 = _l_table(m, s, 0)
    absl = np.abs(l0)
    if derivative:
        l1, b1 = _l_table(m, s, 1)
        y = -l1 / l0
        dy = (b1 + np.abs(y) * b0) / (absl - b0)
    else:
        # the principal branch is the Euler-product log: |log L| <= log zeta(2) < pi
        y = np.log(l0)
        dy = -np.log1p(-b0 / absl)
    dy = dy + 4.0 * _EPS * np.abs(y)  # the division or the log itself
    if s == 1:
        y[0] = dy[0] = np.nan
    y.flags.writeable = dy.flags.writeable = False
    return y, dy


def l_derivative_at_1(chi: DirichletCharacter, k: int = 0) -> ValueWithBudget:
    """L^(k)(1, chi) = (-1)^k sum_{r=1}^m chi(r) gamma_k(r, m), chi non-principal."""
    if _args.instance(chi, DirichletCharacter, "chi").principal:
        raise InvalidArgumentError("L(s, chi) diverges at s = 1 for principal chi")
    k = _args.integer(k, "derivative order k", 0, GAMMA_K_MAX)  # before the caches, where 1.0 would hit 1
    table, budget = _l_table(chi.modulus, 1, k)
    return ValueWithBudget(complex(table[chi.index]), budget)


def l_value(chi: DirichletCharacter, s: float, k: int = 0) -> ValueWithBudget:
    """L^(k)(s, chi) = (-1)^k sum_{r=1}^m chi(r) H_k(r, m, s) at real s > 1, any chi."""
    _args.instance(chi, DirichletCharacter, "chi")
    k = _args.integer(k, "derivative order k", 0, GAMMA_K_MAX)
    exact = _exact(s)
    if not exact > 1:
        raise PreconditionError(f"the Dirichlet series need s > 1, got {_args.shown(s)}")
    table, budget = _l_table(chi.modulus, exact, k)
    return ValueWithBudget(complex(table[chi.index]), budget)


def zeta_value(s: float, k: int = 0) -> ValueWithBudget:
    """zeta^(k)(s) = (-1)^k sum_n log^k n n^(-s) at real s > 1."""
    k = _args.integer(k, "derivative order k", 0, GAMMA_K_MAX)
    vals, buds = _series_batch(1, k, _exact(s))
    value = float(vals[0])
    return ValueWithBudget(-value if k % 2 else value, float(buds[0]))


_CLOSED_FORMS = {
    "chi5": math.log((3.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0),
    "chi_minus7": math.pi / math.sqrt(7.0),
    "chi_minus23": 3.0 * math.pi / math.sqrt(23.0),
    "chi_c_pair_mod5": 2.0 * math.pi**2 / 25.0,
}
CLOSED_FORM_TAGS = tuple(_CLOSED_FORMS)


def closed_form_l_values(tag: str) -> float:
    """Closed forms: L(1,chi_5), L(1,chi_-7), L(1,chi_-23), L(1,chi_c)L(1,chi_c~)."""
    return _CLOSED_FORMS[_args.tag(tag, _CLOSED_FORMS, "closed-form tag")]


# ---------------------------------------------------------------------------
# L(s, rho) of eta(z) eta(23 z), by the Chowla-Selberg formula
# ---------------------------------------------------------------------------

_NODES = np.arange(81) / 16.0  # the trapezoid rule on [0, 5], step 1/16
_WEIGHTS = np.where(_NODES == 0.0, 1.0 / 32.0, 1.0 / 16.0)


def _rounded(x: float) -> ValueWithBudget:
    """A float constant from one correctly rounded (or one-ulp) evaluation."""
    return ValueWithBudget(x, math.ulp(x))


def _log(v: ValueWithBudget) -> ValueWithBudget:
    """log of a positive real value: |log(x + d) - log x| <= -log(1 - |d|/x), plus one ulp."""
    if v.budget >= v.value:
        raise PreconditionError(f"log of a value not resolved from zero: {v}")
    value = math.log(v.value)
    return ValueWithBudget(value, -math.log1p(-v.budget / v.value) * (1.0 + 4.0 * _EPS) + math.ulp(value))


def _bessel_k(nu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_nu(z) and dK_nu/dnu for z >= 15, 0 < nu <= 15/2, within 1e-12 relative
    plus 1e-44: the trapezoid rule on the integrals over t >= 0 of
    e^(-z cosh t) cosh(nu t) and e^(-z cosh t) t sinh(nu t).  Both are even
    and analytic; on |Im t| = pi/3 their moduli integrate to at most
    4 K_(nu+1)(z/2), so the rule errs by less than 2 K_(nu+1)(z/2)
    e^(-32 pi^2/3) < 1e-45 (Trefethen and Weideman, SIAM Rev. 56, 2014, thm
    5.1).  Nodes past 5 or with z cosh t > 690 (left out) add below e^(-640).
    A kept node is off by (6 z cosh t + 9) eps <= 4200 eps, the sums by 80 eps.
    """
    arg = z[:, None] * np.cosh(_NODES)
    e = np.exp(-np.where(arg <= _LOG_FLOOR, arg, np.inf))
    return e @ (np.cosh(nu * _NODES) * _WEIGHTS), e @ (_NODES * np.sinh(nu * _NODES) * _WEIGHTS)


def _epstein_23(a: int, b: int, s: int) -> tuple[ValueWithBudget, ValueWithBudget]:
    """Z(s) = sum_{(x, y) != 0} (a x^2 + b x y + c y^2)^-s and Z'(s) for a form
    of discriminant -23 at an integer s >= 2 (Chowla-Selberg):

        Z(s) = 2 zeta(2s) a^-s + 4 a^(s-1) C(2s-2, s-1) pi zeta(2s-1) 23^(1/2-s)
               + F(s) sum_n w_n(s) cos(pi n b/a) K_(s-1/2)(pi n sqrt(23)/a),

    F(s) = 2^(s+5/2) pi^s/(Gamma(s) sqrt(a) 23^((s-1/2)/2)), w_n(s) =
    sum_{d|n} (n/d^2)^(s-1/2).  The middle term's log-derivative is log a
    + sum_{k<s} 1/(k(2k-1)) - log 23 + 2 zeta'/zeta(2s-1); F'/F = log(2 pi)
    - psi(s) - log(23)/2.  cos(pi n b/a) = (1, 0, -1, 0)[2nb/a mod 4] keeps
    terms with z >= 15, and those past n = 12 sum to less than 1e-35.  With
    K within 1e-12 and every other factor within 20 ulps, 1e-11 of the
    series' summed magnitudes, plus 1e-30, bounds its error.
    """
    z2, dz2 = zeta_value(2 * s), zeta_value(2 * s, 1)
    z1, dz1 = zeta_value(2 * s - 1), zeta_value(2 * s - 1, 1)
    log_a = _rounded(math.log(a))
    head = (2.0 / a**s) * z2  # a^-s is exact for a = 1, 2
    d_head = (4.0 / a**s) * dz2 - log_a * head
    scale = 4.0 * a ** (s - 1) * math.comb(2 * s - 2, s - 1) * _rounded(math.pi) * _rounded(23.0 ** (0.5 - s))
    harmonic = _rounded(float(sum(Fraction(1, k * (2 * k - 1)) for k in range(1, s))))
    mid = scale * z1
    d_mid = mid * (log_a + harmonic - _rounded(math.log(23.0))) + 2.0 * scale * dz1
    nu, n = s - 0.5, np.arange(1, 13)
    cos = np.array((1.0, 0.0, -1.0, 0.0))[(2 * n * b // a) % 4]
    n, cos = n[cos != 0], cos[cos != 0]
    k, dk = _bessel_k(nu, math.pi * math.sqrt(23.0) / a * n)
    ratios = [np.array([q / d**2 for d in range(1, q + 1) if q % d == 0]) for q in n.tolist()]
    w, dw = np.array([(np.sum(r**nu), np.sum(np.log(r) * r**nu)) for r in ratios]).T
    f = 2.0 ** (s + 2.5) * math.pi**s / (math.factorial(s - 1) * math.sqrt(a) * 23.0 ** (nu / 2))
    psi = math.fsum(1.0 / j for j in range(1, s)) - 0.5772156649015329
    dlog_f = math.log(2.0 * math.pi) - psi - 0.5 * math.log(23.0)
    terms = cos * w * k
    size = np.sum(np.abs(terms) * (2.0 + abs(dlog_f)) + np.abs(dw * k) + np.abs(w * dk))
    bessel = ValueWithBudget(f * math.fsum(terms), f * 1e-11 * float(size) + 1e-30)
    d_bessel = ValueWithBudget(f * math.fsum(cos * (dw * k + w * dk) + dlog_f * terms), bessel.budget)
    return head + mid + bessel, d_head + d_mid + d_bessel


def _rho_log(s: int, derivative: int) -> ValueWithBudget:
    """-L'/L(s, rho) (derivative 1) or log L(s, rho) (derivative 0) at an
    integer s >= 2; L(s, rho) = (Z_[1,1,6](s) - Z_[2,1,3](s))/2."""
    (z1, dz1), (z2, dz2) = _epstein_23(1, 1, s), _epstein_23(2, 1, s)
    return (dz2 - dz1) / (z1 - z2) if derivative else _log((z1 - z2) / 2)


# ---------------------------------------------------------------------------
# Prime sums over residue classes by Moebius inversion
# ---------------------------------------------------------------------------

# Primes up to P are summed directly; L-values give the rest.
MOBIUS_P = 1000
# Powers p^e with p <= P are removed from the L-values while p^(-es) >= e^-64.
_POWER_LOG_CUT = 64.0
# p^(-s) stays a normal float while s log p <= 690.
_LOG_FLOOR = 690.0


# The largest s = n a whose L-values are used: B(SIGMA_MAX + 1) < 1e-24, B(s) = int_P^oo log u u^-s du.
SIGMA_MAX = next(s for s in itertools.count(2)
                 if _log_power_integral(MOBIUS_P, math.log(MOBIUS_P), 1, s + 1) < 1e-24)


def _mobius_remainder(s: float, n_max: int) -> float:
    """Bound for the dropped terms n > N = n_max of a class sum.

    Term n is sum_{k | n} |coef| times a class share of the prime-power
    sums at n s, each at most B(n s) <= P^(1 - n s) (log P + 1); with
    d(n) <= n and x = P^-s, sum_{n>N} n P^(1-ns) (log P + 1)
    <= P (log P + 1) (N+1) x^(N+1) / (1 - x)^2.
    """
    lp = math.log(MOBIUS_P)
    x = math.exp(-s * lp)
    log_head = math.log(MOBIUS_P * (lp + 1.0) * (n_max + 1)) - s * (n_max + 1) * lp
    return math.exp(log_head) / (1.0 - x) ** 2


def _mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def _small_power_sums(classify, power, n_classes: int, s, derivative: int):
    """Per class c, the exactly rounded sum over the primes p <= P of class
    b = classify(p) in 0..n_classes-1 and e >= 1 with power(b, e) = c of
    p^(-es)/e (derivative 0) or log p p^(-es) (derivative 1), for
    p^(-es) >= e^-64; and a bound for all the powers left out."""
    p = sieve_primes(MOBIUS_P).primes
    b = classify(p)
    keep = (b >= 0) & (b < n_classes)  # off the classes: p | m, or p = 23
    p, b = p[keep], b[keep]
    pf = p.astype(np.float64)
    lp = np.log(pf)
    sf = float(s)
    e_max = np.floor(_POWER_LOG_CUT / (sf * lp)).astype(np.int64)
    which = np.repeat(np.arange(len(p)), e_max)
    e = np.arange(len(which)) - np.repeat(np.cumsum(e_max) - e_max, e_max) + 1
    x = pf[which] ** (-sf * e)
    w = lp[which] * x if derivative else x / e
    c = power(b[which], e)
    order = np.argsort(c, kind="stable")
    c, w = c[order], w[order]
    cuts = np.flatnonzero(np.diff(c)) + 1
    sums = np.zeros(n_classes)
    for cls, group in zip(c[np.r_[0, cuts]].tolist(), np.split(w, cuts)):
        sums[cls] = math.fsum(group.tolist())
    # each p leaves out at most lp^d x^(E+1)/(1 - x), x = p^-s
    left = lp**derivative * pf ** (-sf * (e_max + 1)) / (1.0 - pf**-sf)
    return sums, 1.01 * math.fsum(left.tolist())


@lru_cache(maxsize=128)
def _rough_sums(m: int, s, derivative: int) -> tuple:
    """Prime-power sums over p > P per unit class c (residue g^c mod m).

    X(c) = sum_{p > P, e >= 1, p^e = g^c} of p^(-es)/e (derivative 0) or
    log p p^(-es) (derivative 1), from log L(s, chi) or -L'/L(s, chi) for
    every chi by one forward DFT, less the powers of p <= P.  Returns X, a
    rounding bound per class, the root mean square over the characters of
    the input error (a sum of X over S classes is off by at most sqrt(|S|)
    times it, by Cauchy-Schwarz and Parseval), and a bound for the small
    prime powers left in X.
    """
    phi = euler_phi(m)
    y, dy = _log_l_table(m, s, derivative)
    full = np.fft.fft(y).real / phi
    small, left = _small_power_sums(
        lambda p: _dlog_table(m)[p % m], lambda c, k: (k * c) % phi, phi, s, derivative)
    x = full - small
    fft_rounding = 16.0 * _EPS * float(np.sum(np.abs(y))) / phi
    err = fft_rounding + 4.0 * _EPS * small + _EPS * np.abs(x)
    rms = float(np.sqrt(np.mean(dy * dy)))
    for a in (x, err):
        a.flags.writeable = False
    return x, err, rms, left


@np.errstate(over="ignore")  # s log p overflows at large s; inf > _LOG_FLOOR leaves the term out, as it should
def _prime_terms(primes: np.ndarray, s: float, derivative: int):
    """Per prime: log p/(p^s - 1) or -log(1 - p^-s), each within 5 ulps, and
    a bound for the terms left out because p^-s would not be a normal float."""
    lp = np.log(primes.astype(np.float64))
    keep = float(s) * lp <= _LOG_FLOOR
    x = primes[keep].astype(np.float64) ** -float(s)
    terms = lp[keep] * x / (1.0 - x) if derivative else -np.log1p(-x)
    # a left-out term is below 2 max(log p, 1) e^-690
    left = 2.0 * float(np.sum(np.maximum(lp[~keep], 1.0))) * math.exp(-_LOG_FLOOR)
    return terms, left


def _inversion(terms: np.ndarray, left: float, in_class, power, rough, s, derivative: int):
    """The direct terms (``left`` bounds those left out), then sum_n sum_{k|n}
    coef * (X at n s over the classes c with power(c, k) in ``in_class``), X
    and its bounds from rough(n s) as from _rough_sums, and the remainder."""
    pieces = terms.tolist()
    # each term is off by at most 5 ulps (log, power, subtraction, division)
    budget = 5.0 * _EPS * float(np.sum(terms)) + left
    classes = np.arange(len(in_class))
    n_max = int(SIGMA_MAX // s) if in_class.any() else 0
    for n in range(1, n_max + 1):
        x, err, rms, small_left = rough(n * s)
        for k in range(1, n + 1):
            mu = _mobius(k)
            if n % k or not mu:
                continue
            mask = in_class[power(classes, k)]
            part = math.fsum(x[mask])
            coef = mu / n if derivative == 0 else mu
            pieces.append(coef * part)
            share = math.sqrt(np.count_nonzero(mask)) * rms + float(np.sum(err[mask]))
            budget += abs(coef) * (share + small_left + _EPS * abs(part)) + _EPS * abs(coef * part)
    if in_class.any():
        budget += _mobius_remainder(float(s), n_max)
    value = math.fsum(pieces)
    return ValueWithBudget(value, budget + _EPS * abs(value))


@lru_cache(maxsize=1024)
def _class_sum(m: int, residues: tuple, s, derivative: int) -> ValueWithBudget:
    """prime_class_sum for sorted residues and an exact s: the classes are the
    unit residues g^c, and (g^c)^k = g^(kc)."""
    phi = euler_phi(m)
    primes = sieve_primes(MOBIUS_P).primes
    terms, left = _prime_terms(primes[np.isin(primes % m, residues)], s, derivative)
    dlog = _dlog_table(m)[list(residues)]
    in_class = np.zeros(phi, dtype=bool)
    in_class[dlog[dlog >= 0]] = True
    return _inversion(terms, left, in_class, lambda c, k: (k * c) % phi,
                      lambda sigma: _rough_sums(m, sigma, derivative), s, derivative)


def prime_class_sum(m: int, residues, s: float, derivative: int = 1) -> ValueWithBudget:
    """Sum over the primes p = r (mod m), r in ``residues``, at real s >= 2, of

        derivative 1: log p/(p^s - 1),
        derivative 0: -log(1 - p^-s),

    that is of sum_j w_j log^d p p^(-js) with w_j = 1/j^(1-d).  m is one of
    the moduli in characters.GENERATORS; s >= 1 will do if no residue is a
    unit, as the sum then runs over the primes that divide m.
    Direct below P, Moebius inversion of L-values above (module docstring);
    the budget covers rounding and the bounded remainder.
    """
    m = _args.tag(m, _GENERATORS, "modulus")
    derivative = _args.tag(derivative, (0, 1), "derivative")
    key = tuple(sorted({_args.integer(r, "a residue") % m for r in _args.tags(residues, None, "residues")}))
    lowest = 2 if any(math.gcd(r, m) == 1 for r in key) else 1
    exact = _exact(s, float_range=True)  # the direct terms' p^-s need a float s
    if not exact >= lowest:
        raise PreconditionError(f"prime class sums over these residues need s >= {lowest}, got {_args.shown(s)}")
    return _class_sum(m, key, exact, derivative)


# ---------------------------------------------------------------------------
# Prime sums over the Frobenius classes of the Hilbert class field of Q(sqrt(-23))
# ---------------------------------------------------------------------------

# |C| chi(C)/6 on the classes C = S1, S2, S3 (rows) for chi = 1, chi_-23, rho
_S3_WEIGHTS = np.array([[3], [2], [1]]) * np.array([[1, 1, 1], [-1, 1, 1], [0, -1, 2]]).T / 6.0


def _s3_power(c, k):
    """The class of g^k for g in class c: the identity (S3) iff the order of g,
    2 for a transposition (S1) and 3 for a 3-cycle (S2), divides k."""
    return np.where(k % np.array([2, 3, 1])[c] == 0, 2, c)


@lru_cache(maxsize=32)
def _frobenius_rough(s, derivative: int) -> tuple:
    """_rough_sums over the classes C: X(C) = (|C|/6) sum_chi chi(C)
    (-L'/L)(s, chi) (derivative 1) or log L(s, chi) (derivative 0), each L
    without its factor at 23 (the table mod 23 for 1 and chi_-23), less the
    powers of p <= P.  The bound per class holds the L-values' budgets."""
    y, dy = _log_l_table(23, s, derivative)
    (ramified,), _ = _prime_terms(np.array([23]), s, derivative)
    rho = _rho_log(s, derivative) - ValueWithBudget(ramified, 5.0 * _EPS * ramified)
    ys = np.array([y[0].real, y[11].real, rho.value])
    small, left = _small_power_sums(wilton_classes, _s3_power, 3, s, derivative)
    x = _S3_WEIGHTS @ ys - small
    dys = np.array([dy[0], dy[11], rho.budget]) + 4.0 * _EPS * np.abs(ys)  # with the weights' rounding
    err = np.abs(_S3_WEIGHTS) @ dys + 4.0 * _EPS * small + _EPS * np.abs(x)
    return x, err, 0.0, left


def frobenius_class_sum(classes, a: int, derivative: int = 1) -> ValueWithBudget:
    """Sum of log p/(p^a - 1) (derivative 1) or -log(1 - p^-a) (derivative 0)
    over the primes whose Frobenius in Gal(H/Q) = S_3 lies in ``classes``
    (0 = S1, 1 = S2, 2 = S3, Wilton's classes), integer a >= 2: direct below
    P, Moebius inversion above (module docstring)."""
    classes = _args.tags(classes, (0, 1, 2), "Frobenius classes")
    derivative = _args.tag(derivative, (0, 1), "derivative")
    a = _exact(a, float_range=True)  # the direct terms' p^-a need a float a
    if not (isinstance(a, int) and a >= 2):
        raise PreconditionError(f"Frobenius class sums need an integer a >= 2, got {_args.shown(a)}")
    p = sieve_primes(MOBIUS_P).primes
    terms, left = _prime_terms(p[np.isin(wilton_classes(p), classes)], a, derivative)
    return _inversion(terms, left, np.isin(np.arange(3), classes), _s3_power,
                      lambda sigma: _frobenius_rough(sigma, derivative), a, derivative)
