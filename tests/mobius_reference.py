"""30-digit reference values for prime sums over residue classes.

The Moebius formula of lrlab.lseries.prime_class_sum, evaluated
independently in mpmath: the progression sums come from Hurwitz zeta
values, sum_{n=r (m)} n^-s = m^-s zeta(s, r/m) and
sum_{n=r (m)} log n n^-s = m^-s (log m zeta(s, r/m) - zeta'(s, r/m)),
the characters from a discrete-log table built here, the DFTs from a
mixed-radix transform in fixed-point integers, and the direct range P from PARAMS.  With
g the generator of (Z/mZ)^* and b the discrete log of the residue,

    sum_{p = g^b, p > P} log p p^-s = sum_k mu(k) sum_{c: kc = b (phi)} G_ks(c),
    G_s(c) = (1/phi) sum_chi conj(chi(g^c)) (-L'/L)(s, chi)
             - sum_{p <= P, e >= 1, p^e = g^c} log p p^(-es),

and the same with log L, p^(-es)/e and mu(k)/k for the sums of p^-s; the
sums with 1/(p^s - 1) and -log(1 - p^-s) add s = j a over j.  Only
s = n a <= the PARAMS limit is evaluated.  The rest is bounded by
sum_{n>N} n B(n a), B(s) = P^(1-s) (log P/(s-1) + 1/(s-1)^2); where no
L-value is used, by the same integral over each residue class, and the
powers of p <= P below e^-80 by 2 e^-80 sum_{p<=P} max(log p, 1) per
(n, k) term; `reference` returns the value and that bound.

Past the PARAMS limit the primes are summed directly while p^-s >= e^-80.
Mod 691 takes L-values at s = 2 only (690 characters, 691 Hurwitz pairs),
with P = 1e6 so that everything else stays below 1e-16.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from lrlab.characters import GENERATORS
from lrlab.primes import sieve_primes

DPS = 30
DEFAULT_PARAMS = (600, 8)  # (P, the largest s = n a whose L-values are used)
PARAMS = {691: (10**6, 2)}
_POWER_CUT = 80.0  # powers p^(-es) >= e^-80 of p <= P are summed


def _mobius(n: int) -> int:
    result = 1
    for d in range(2, n + 1):
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
    return result


@lru_cache(maxsize=None)
def _dlogs(m: int) -> tuple[np.ndarray, int]:
    """Discrete logs mod m base GENERATORS[m] (-1 off the units), and phi(m)."""
    dlog = np.full(m, -1, dtype=np.int64)
    x, a = 1, 0
    while dlog[x] < 0:
        dlog[x] = a
        x, a = x * GENERATORS[m] % m, a + 1
    return dlog, a


# The DFTs run in fixed point: complex values as pairs of integers in units
# of 2^-160, so each product is off by at most 2^-159 and a transform of
# length 690 by far less than 1e-40.
_SHIFT = 160


def _to_fixed(z) -> tuple[int, int]:
    with mp.workdps(DPS + 30):
        z = mp.mpc(z) * 2**_SHIFT
        return int(mp.nint(z.real)), int(mp.nint(z.imag))


def _from_fixed(z: tuple[int, int]):
    return mp.mpc(mp.mpf(z[0]), mp.mpf(z[1])) / 2**_SHIFT


@lru_cache(maxsize=None)
def _roots(n: int) -> list:
    """exp(2 pi i k/n) for k < n, in fixed point."""
    with mp.workdps(DPS + 30):
        return [_to_fixed(mp.expjpi(mp.mpf(2 * k) / n)) for k in range(n)]


def _dft(x: list, sign: int) -> list:
    """X_j = sum_b x_b exp(sign 2 pi i j b/n) in fixed point, split by the
    smallest prime factor of n."""
    n = len(x)
    roots = _roots(n)
    p = next(d for d in range(2, n + 1) if n % d == 0) if n > 1 else 1
    q = n // p
    sub = [_dft(x[r::p], sign) for r in range(p)] if p < n else [[v] for v in x]
    out = []
    for j in range(n):
        re = im = 0
        for r in range(p):
            a, b = sub[r][j % q]
            c, d = roots[sign * r * j % n]
            re += a * c - b * d
            im += a * d + b * c
        out.append((re >> _SHIFT, im >> _SHIFT))
    return out


@lru_cache(maxsize=None)
def _progressions(m: int, s: int) -> tuple[list, list]:
    """sum_{n = r (m)} n^-s and sum_{n = r (m)} log n n^-s, indexed by the discrete log of r."""
    dlog, phi = _dlogs(m)
    with mp.workdps(DPS):
        scale, log_m = mp.mpf(m) ** -s, mp.log(m)
        h0, h1 = [mp.mpf(0)] * phi, [mp.mpf(0)] * phi
        for r in range(1, m):
            if dlog[r] >= 0:
                z, dz = mp.zeta(s, mp.mpf(r) / m), mp.zeta(s, mp.mpf(r) / m, 1)
                h0[dlog[r]] = scale * z
                h1[dlog[r]] = scale * (log_m * z - dz)
    return h0, h1


@lru_cache(maxsize=None)
def _full_power_sums(m: int, s: int, derivative: int) -> list:
    """A(c) = sum over prime powers p^e = g^c of p^(-es)/e or log p p^(-es), every c."""
    phi = _dlogs(m)[1]
    h0, h1 = _progressions(m, s)
    with mp.workdps(DPS + 10):
        l0 = [_from_fixed(v) for v in _dft([_to_fixed(v) for v in h0], 1)]
        l1 = [_from_fixed(v) for v in _dft([_to_fixed(v) for v in h1], 1)]
        y = [b / a for a, b in zip(l0, l1)] if derivative else [mp.log(a) for a in l0]
        return [_from_fixed(v).real / phi for v in _dft([_to_fixed(v) for v in y], -1)]


def _small_powers(m: int, s: int, derivative: int, big_p: int, classes: frozenset) -> dict:
    """sum over p <= P, e >= 1 with p^e = g^c and p^(-es) >= e^-80, per class c in ``classes``."""
    dlog, _ = _dlogs(m)
    primes = sieve_primes(big_p).primes
    primes = primes[dlog[primes % m] >= 0]
    wanted = np.zeros(len(dlog), dtype=bool)
    wanted[[r for r in range(m) if dlog[r] in classes]] = True
    out = {c: [] for c in classes}
    residue = np.ones(len(primes), dtype=np.int64)
    logs = np.log(primes.astype(np.float64))
    for e in range(1, int(_POWER_CUT / (s * math.log(2))) + 1):
        residue = residue * (primes % m) % m
        pick = wanted[residue] & (e * s * logs <= _POWER_CUT)
        for p, r in zip(primes[pick].tolist(), residue[pick].tolist()):
            lp = mp.log(p)
            out[int(dlog[r])].append(lp * mp.mpf(p) ** (-e * s) if derivative else mp.mpf(p) ** (-e * s) / e)
    return {c: mp.fsum(v) for c, v in out.items()}


def _term(p: int, s: int, derivative: int):
    x = mp.mpf(p) ** -s
    return mp.log(p) * x / (1 - x) if derivative else -mp.log(1 - x)


def reference(m: int, residues, s: int, derivative: int = 1):
    """(value, bound) for the sum over primes p = r (mod m), r in ``residues``, of
    log p/(p^s - 1) or -log(1 - p^-s); |true - value| <= bound."""
    big_p, s_max = PARAMS.get(m, DEFAULT_PARAMS)
    dlog, phi = _dlogs(m)
    res = {r % m for r in residues}
    units = {int(dlog[r]) for r in res if dlog[r] >= 0}
    n_max = s_max // s if units else 0
    if not n_max:  # no L-values: sum directly while p^-s >= e^-80
        big_p = max(2, min(big_p, int(math.exp(_POWER_CUT / s))))
    with mp.workdps(DPS):
        primes = [p for p in sieve_primes(big_p).primes.tolist() if p % m in res]
        primes += [q for q in range(big_p + 1, m + 1) if m % q == 0 and q % m in res]
        total = mp.fsum(_term(p, s, derivative) for p in primes)
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                mu = _mobius(k)
                if n % k or not mu:
                    continue
                cs = frozenset(c for c in range(phi) if k * c % phi in units)
                full = _full_power_sums(m, n * s, derivative)
                small = _small_powers(m, n * s, derivative, big_p, cs)
                coef = mp.mpf(mu) if derivative else mp.mpf(mu) / n
                total += coef * mp.fsum(full[c] - small[c] for c in cs)
        lp = math.log(big_p)
        x = big_p ** -float(s)
        if n_max:
            dropped = big_p * (lp + 1) * (n_max + 1) * x ** (n_max + 1) / (1 - x) ** 2
        elif not units:
            dropped = 0.0  # only the primes that divide m, all summed: s >= 1 will do
        else:
            # each term is at most f(p) = log p p^-s/(1 - P^-s), decreasing, and
            # sum_{n > P, n = r (m)} f(n) <= f(P) + (1/m) int_P^oo f, per residue
            integral = big_p ** (1.0 - s) * (lp / (s - 1) + 1 / (s - 1) ** 2)
            dropped = len(units) * (lp * x + integral / m) / (1 - x)
        powers_left = 2.0 * math.exp(-_POWER_CUT) * 2.2 * big_p * n_max * n_max
        return total, dropped + powers_left
