"""Exact desk-scale oracles for tau(n), tau(n) mod q, and partition counts.

tau(n) are the coefficients of x * prod_{n>=1} (1 - x^n)^24, computed in
exact integer arithmetic.  The expansion goes through Jacobi's identity

    prod (1 - x^n)^3 = sum_{k>=0} (-1)^k (2k+1) x^{k(k+1)/2},

whose few nonzero terms give the 6th power by a sparse convolution; the
24th power then needs two polynomial squarings, each done by Kronecker
substitution in base 10: every coefficient c becomes a w-digit
decimal field holding c + 5*10^(w-1), the packed string is read as one
Decimal, squared, and the fields of the square are sliced back out.  The
width is chosen so that n * max|c|^2 < 10^(w-1), which bounds every
coefficient of the square, so each offset field stays inside
[4*10^(w-1), 6*10^(w-1)) and never carries into its neighbour.  The
standard library's decimal module (libmpdec) multiplies large operands by
number-theoretic transform and converts to and from strings in linear time;
its context traps Inexact and Rounded, so any loss of digits raises.

Congruence shortcuts:
    tau(n) = n*sigma_1(n)   (mod 3)
    tau(n) = n*sigma_1(n)   (mod 5)
    tau(n) = n*sigma_3(n)   (mod 7)
    tau(n) = sigma_11(n)    (mod 691)
    mod 23: Wilton's prime values extended multiplicatively by the Hecke
            recursion tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1))
    mod 2:  tau(n) is odd iff n is an odd square

lambda(n) counts partitions of n into parts that are not multiples of 9;
its coefficients are reduced mod 3 by a blocked coin DP.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError
from .primes import kronecker_symbol, sieve_primes, wilton_class

__all__ = [
    "TauWindow",
    "tau_exact",
    "tau_mod",
    "lambda_mod3",
    "odd_tau_count",
    "TAU_DESK_LIMIT",
]

TAU_DESK_LIMIT = 100_000
_SUPPORTED_MODULI = (2, 3, 5, 7, 23, 691)

# Exact integer arithmetic on Decimal: any rounding raises instead of passing.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


@dataclass
class TauWindow:
    """tau(1..n_max) as exact integers."""

    n_max: int
    values: list  # values[i] = tau(i+1)

    def tau(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise InvalidArgumentError(f"n = {n} outside window 1..{self.n_max}")
        return self.values[n - 1]


def _eta6_coeffs(length: int) -> list[int]:
    """Coefficients of prod (1-x^n)^6 up to x^(length-1).

    The square of Jacobi's sparse series: about sqrt(2*length) terms give
    fewer than 2*length products, each far inside int64.
    """
    k = np.arange(math.isqrt(2 * length) + 1, dtype=np.int64)
    k = k[k * (k + 1) // 2 < length]
    expo = k * (k + 1) // 2
    coeff = np.where(k % 2 == 0, 1, -1) * (2 * k + 1)
    idx = (expo[:, None] + expo[None, :]).ravel()
    keep = idx < length
    out = np.zeros(length, dtype=np.int64)
    np.add.at(out, idx[keep], (coeff[:, None] * coeff[None, :]).ravel()[keep])
    return out.tolist()


def _poly_square_trunc(coeffs: list[int], length: int) -> list[int]:
    """Truncated square of an integer polynomial via decimal Kronecker substitution.

    The field width w satisfies len * max|c|^2 < 10^(w-1), the crude
    convolution bound, so the offset fields provably never carry.
    """
    n = len(coeffs)
    maxc = max(1, max(abs(c) for c in coeffs))
    w = len(str(n * maxc * maxc)) + 1
    half = 5 * 10 ** (w - 1)
    half_field = str(half)

    # |c| < 10^(w-1), so every c + half has exactly w digits
    packed = "".join([str(c + half) for c in reversed(coeffs)])
    v = _EXACT.subtract(decimal.Decimal(packed), decimal.Decimal(half_field * n))

    m = 2 * n - 1  # number of coefficients of the full square
    u = _EXACT.add(_EXACT.multiply(v, v), decimal.Decimal(half_field * m))
    digits = str(u)  # exactly m*w digits, lowest coefficient last
    take = min(length, m)
    low = [int(digits[i : i + w]) - half for i in range((m - take) * w, m * w, w)]
    return low[::-1] + [0] * (length - take)


@lru_cache(maxsize=2)
def tau_exact(n_max: int) -> TauWindow:
    """Exact tau(1..n_max) from x * prod (1-x^n)^24."""
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    if n_max > TAU_DESK_LIMIT:
        raise ResourceLimitError(f"tau_exact desk limit is {TAU_DESK_LIMIT}, got {n_max}")
    e6 = _eta6_coeffs(n_max)
    e12 = _poly_square_trunc(e6, n_max)
    e24 = _poly_square_trunc(e12, n_max)
    return TauWindow(n_max, e24)


def _sigma_power_mod(n_max: int, power: int, q: int) -> np.ndarray:
    """sigma_power(n) mod q for n = 0..n_max via a two-sided divisor sieve.

    Each divisor pair d * j = n is added once: by a slice over the multiples
    of d for d <= sqrt(n_max), and for larger d, which only meet cofactors
    j < sqrt(n_max), by a slice over the multiples j*d of each cofactor j.
    """
    residue_power = np.array([pow(r, power, q) for r in range(q)], dtype=np.int64)
    weight = residue_power[np.arange(n_max + 1) % q]  # d^power mod q
    sig = np.zeros(n_max + 1, dtype=np.int64)
    root = math.isqrt(n_max)
    for d in range(1, root + 1):
        sig[d::d] += weight[d]
    for j in range(1, n_max // (root + 1) + 1):
        top = n_max // j  # d runs over root+1 .. top
        sig[j * (root + 1) : j * top + 1 : j] += weight[root + 1 : top + 1]
    return sig % q


def _tau_mod_23(n_max: int) -> np.ndarray:
    """tau mod 23 from Wilton's prime values plus the Hecke recursion."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    out[1] = 1
    table = sieve_primes(max(2, n_max))
    # smallest-prime-factor table for multiplicative assembly
    spf = np.zeros(n_max + 1, dtype=np.int64)
    for p in table.primes:
        p = int(p)
        if p > n_max:
            break
        sel = spf[p::p]
        sel[sel == 0] = p

    wilton_value = {"P23": 1, "S1": 0, "S3": 2, "S2": 22}
    tau_pp: dict[int, int] = {}  # tau(p^k) mod 23 keyed by p^k

    for p in table.primes:
        p = int(p)
        if p > n_max:
            break
        tp = wilton_value[wilton_class(p)]
        p11 = 0 if p == 23 else (kronecker_symbol(p, 23) % 23)  # p^11 = (p|23) mod 23
        prev, cur = 1, tp
        pk = p
        while pk <= n_max:
            tau_pp[pk] = cur
            prev, cur = cur, (tp * cur - p11 * prev) % 23
            pk *= p

    for n in range(2, n_max + 1):
        p = int(spf[n])
        pk = p
        rest = n // p
        while rest % p == 0:
            rest //= p
            pk *= p
        out[n] = tau_pp[pk] * out[rest] % 23 if rest > 1 else tau_pp[pk]
    return out


def tau_mod(q: int, n_max: int) -> np.ndarray:
    """tau(n) mod q for n = 1..n_max via the congruence shortcuts.

    Returns an array a with a[n] = tau(n) mod q (a[0] is unused and 0).
    """
    if q not in _SUPPORTED_MODULI:
        raise InvalidArgumentError(f"unsupported modulus {q}; expected one of {_SUPPORTED_MODULI}")
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(n_max + 1, dtype=np.int64)
    if q == 2:
        out = np.zeros(n_max + 1, dtype=np.int64)
        j = 1
        while j * j <= n_max:
            out[j * j] = 1
            j += 2
        return out
    if q in (3, 5):
        return n * _sigma_power_mod(n_max, 1, q) % q
    if q == 7:
        return n * _sigma_power_mod(n_max, 3, q) % q
    if q == 691:
        return _sigma_power_mod(n_max, 11, q)
    return _tau_mod_23(n_max)


def lambda_mod3(n_max: int) -> np.ndarray:
    """Partition counts lambda(0..n_max) mod 3, parts not divisible by 9.

    Blocked coin DP: adding part m maps a[n] += a[n-m] for ascending n,
    done in m-wide blocks so each block only reads finished values.
    """
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    if n_max > TAU_DESK_LIMIT:
        raise ResourceLimitError(f"lambda_mod3 desk limit is {TAU_DESK_LIMIT}, got {n_max}")
    a = np.zeros(n_max + 1, dtype=np.uint8)
    a[0] = 1
    for m in range(1, n_max + 1):
        if m % 9 == 0:
            continue
        for start in range(m, n_max + 1, m):
            end = min(start + m, n_max + 1)
            a[start:end] = (a[start:end] + a[start - m : end - m]) % 3
    return a


def odd_tau_count(x: int) -> int:
    """#{n <= x : tau(n) odd} = floor((1 + sqrt(x)) / 2), integer square root only."""
    x = int(x)
    if x < 0:
        raise InvalidArgumentError(f"x must be >= 0, got {x}")
    return (math.isqrt(x) + 1) // 2
