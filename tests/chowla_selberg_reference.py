"""References for L(s, rho) of eta(z) eta(23 z) and the prime sums over the
Frobenius classes S1, S2, S3 of lrlab.lseries.frobenius_class_sum.

L(s, rho) = (Z_[1,1,6](s) - Z_[2,1,3](s))/2, each Epstein zeta function by
the Chowla-Selberg formula in mpmath at 40 digits, with mpmath's own Bessel
K at real order and the s-derivative by mp.diff: no half-integer closed
form, no digamma identity and no trapezoid rule is shared with lrlab.

The class sums, of log p/(p^a - 1) or -log(1 - p^-a), follow
mobius_reference: the Moebius formula over the classes of S_3, from -L'/L
or log L with the principal character and chi_-23 mod 23 from its Hurwitz
progression sums, P = 600 and n a <= 8.  The primes p <= P are
classified here: S3 if p = x^2 + x y + 6 y^2, else S2 if (p|23) = 1, else
S1.  `frobenius_reference` returns the value and a bound on its error.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

from lrlab.primes import sieve_primes
from mobius_reference import _mobius, _progressions

DPS = 40
BIG_P, SIGMA_MAX = 600, 8
_POWER_CUT = 80.0  # powers p^(-es) >= e^-80 of p <= P are summed
SIZES, ORDERS = (3, 2, 1), (2, 3, 1)  # S1, S2, S3
CHARACTERS = ((1, 1, 1), (-1, 1, 1), (0, -1, 2))  # 1, chi_-23, rho


def epstein(a: int, b: int, s):
    """sum over (x, y) != 0 of (a x^2 + b x y + c y^2)^-s, discriminant -23,
    to DPS digits or to the working precision if that is higher (mp.diff)."""
    with mp.workdps(max(DPS, mp.mp.dps)):
        s = mp.mpf(s)
        root = mp.sqrt(23)
        head = 2 * mp.zeta(2 * s) * mp.mpf(a) ** -s
        head += (2 ** (2 * s) * mp.mpf(a) ** (s - 1) * mp.sqrt(mp.pi) * mp.gamma(s - 0.5)
                 * mp.zeta(2 * s - 1) / (mp.gamma(s) * root ** (2 * s - 1)))
        scale = 2 ** (s + 2.5) * mp.pi**s / (mp.gamma(s) * mp.sqrt(a) * root ** (s - 0.5))
        series = mp.fsum(
            mp.fsum((mp.mpf(n) / d**2) ** (s - 0.5) for d in range(1, n + 1) if n % d == 0)
            * mp.cos(mp.pi * n * b / a) * mp.besselk(s - 0.5, mp.pi * n * root / a)
            for n in range(1, 20)
        )
        return head + scale * series


def l_rho(s):
    return (epstein(1, 1, s) - epstein(2, 1, s)) / 2


@lru_cache(maxsize=None)
def rho_log(s: int, derivative: int):
    """-L'/L(s, rho) (derivative 1) or log L(s, rho) (derivative 0)."""
    with mp.workdps(DPS):
        return -mp.diff(l_rho, s) / l_rho(s) if derivative else mp.log(l_rho(s))


def frobenius_class(p: int) -> int:
    """0, 1, 2 for S1, S2, S3 (p != 23)."""
    if pow(p, 11, 23) != 1:
        return 0
    return 2 if any(math.isqrt(4 * p - 23 * y * y) ** 2 == 4 * p - 23 * y * y
                    for y in range(1, math.isqrt(4 * p // 23) + 1)) else 1


def _power(c: int, k: int) -> int:
    return 2 if k % ORDERS[c] == 0 else c


def _weight(p: int, s: int, derivative: int):
    """log p/(p^s - 1) or -log(1 - p^-s)."""
    x = mp.mpf(p) ** -s
    return mp.log(p) * x / (1 - x) if derivative else -mp.log(1 - x)


@lru_cache(maxsize=None)
def _class_functions(s: int, derivative: int) -> tuple:
    """X(C) = (|C|/6) sum_chi chi(C) (-L_P'/L_P)(s, chi) or log L_P(s, chi),
    23 left out, per class C."""
    h0, h1 = _progressions(23, s)
    with mp.workdps(DPS):
        quadratic = [mp.fsum((-1) ** b * v for b, v in enumerate(h)) for h in (h0, h1)]
        if derivative:
            ys = [mp.fsum(h1) / mp.fsum(h0), quadratic[1] / quadratic[0]]
        else:
            ys = [mp.log(mp.fsum(h0)), mp.log(quadratic[0])]
        ys.append(rho_log(s, derivative) - _weight(23, s, derivative))
        x = [mp.mpf(SIZES[c]) / 6 * mp.fsum(chi[c] * y for chi, y in zip(CHARACTERS, ys)) for c in range(3)]
        for p in sieve_primes(BIG_P).tolist():
            if p == 23:
                continue
            c = frobenius_class(p)
            for e in range(1, int(_POWER_CUT / (s * math.log(p))) + 1):
                x[_power(c, e)] -= mp.log(p) * mp.mpf(p) ** (-e * s) if derivative else mp.mpf(p) ** (-e * s) / e
        return tuple(x)


def frobenius_reference(classes, a: int, derivative: int = 1):
    """(value, bound) for the sum over the primes in the Frobenius classes
    ``classes`` of log p/(p^a - 1) (derivative 1) or -log(1 - p^-a)
    (derivative 0); |true - value| <= bound."""
    n_max = SIGMA_MAX // a
    with mp.workdps(DPS):
        total = mp.fsum(_weight(p, a, derivative) for p in sieve_primes(BIG_P).tolist()
                        if p != 23 and frobenius_class(p) in classes)
        for n in range(1, n_max + 1):
            x = _class_functions(n * a, derivative)
            for k in range(1, n + 1):
                if n % k == 0 and _mobius(k):
                    coef = mp.mpf(_mobius(k)) if derivative else mp.mpf(_mobius(k)) / n
                    total += coef * mp.fsum(x[c] for c in range(3) if _power(c, k) in classes)
    lp, y = math.log(BIG_P), BIG_P ** -float(a)
    dropped = BIG_P * (lp + 1) * (n_max + 1) * y ** (n_max + 1) / (1 - y) ** 2
    powers_left = 2.0 * math.exp(-_POWER_CUT) * 2.2 * BIG_P * n_max * n_max
    return total, dropped + powers_left
