"""Exact desk-scale oracles for tau(n), tau(n) mod q, and partition counts.

tau(n) are the coefficients of x * prod_{n>=1} (1 - x^n)^24, computed in
exact integer arithmetic.  The expansion goes through Jacobi's identity

    prod (1 - x^n)^3 = sum_{k>=0} (-1)^k (2k+1) x^{k(k+1)/2},

whose few nonzero terms give, with E = prod (1 - x^n), E^6 by a sparse
convolution and E^12 = E^6 * E^3 * E^3 by two int64 passes, one slice-add
per term of the series.  Each pass first checks that sum |c| * max|a| <
2^63, which bounds every partial sum, and raises rather than wraps.  E^24
is then one polynomial squaring, done by Kronecker substitution in base
10: every coefficient c becomes a w-digit decimal field holding
c + 5*10^(w-1), the packed string is read as one Decimal, squared, and the
fields of the square are sliced back out.  The width is chosen so that
n * max|c|^2 < 10^(w-1), which bounds every coefficient of the square, so
each offset field stays inside [4*10^(w-1), 6*10^(w-1)) and never carries
into its neighbour.  The standard library's decimal module (libmpdec)
multiplies large operands by number-theoretic transform and converts to
and from strings in linear time; its context traps Inexact and Rounded, so
any loss of digits raises.

Congruence shortcuts:
    tau(n) = n*sigma_1(n)   (mod 3)
    tau(n) = n*sigma_1(n)   (mod 5)
    tau(n) = n*sigma_3(n)   (mod 7)
    tau(n) = sigma_11(n)    (mod 691)
    tau(n) = [x^n] x E(x) E(x^23)   (mod 23)
    mod 2:  tau(n) is odd iff n is an odd square

The mod-23 line is the product behind Wilton's congruence for tau(p) mod
23: (1 - x^k)^23 = 1 - x^(23k) mod 23, so Delta = x E^24 = x E(x) E(x^23).
Both factors are Euler's pentagonal series
E = sum_{k in Z} (-1)^k x^(k(3k-1)/2), so the product is one fancy-indexed
add of E's terms per term of E(x^23).

lambda(n) counts partitions of n into parts that are not multiples of 9.  Its
generating function E(x^9)/E(x), E(x) = prod (1 - x^n), is E(x)^8 mod 3, since
(1 - x^m)^9 = 1 - x^(9m) mod 3: the dense E^6 above times the pentagonal
series twice, by the same int64 passes, reduced mod 3 after each.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = [
    "TauWindow",
    "tau_exact",
    "tau_mod",
    "lambda_mod3",
    "odd_tau_count",
    "TAU_DESK_LIMIT",
    "TAU_MOD_DESK_LIMIT",
]

TAU_DESK_LIMIT = 100_000
TAU_MOD_DESK_LIMIT = 10_000_000
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


def _jacobi_series(length: int) -> tuple[np.ndarray, np.ndarray]:
    """(expo, coeff): the terms of prod (1-x^n)^3 below x^length, by Jacobi's identity."""
    k = np.arange(math.isqrt(2 * length) + 1, dtype=np.int64)
    k = k[k * (k + 1) // 2 < length]
    return k * (k + 1) // 2, np.where(k % 2 == 0, 1, -1) * (2 * k + 1)


def _pentagonal_series(length: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """(expo, sign): the terms of E(x^step) below x^length, ascending, by Euler's
    pentagonal theorem E = sum_{k in Z} (-1)^k x^(k(3k-1)/2)."""
    k = np.arange(-math.isqrt(length), math.isqrt(length) + 1, dtype=np.int64)
    expo = step * (k * (3 * k - 1) // 2)
    order = np.argsort(expo)[: np.count_nonzero(expo < length)]
    return expo[order], np.where(k[order] % 2 == 0, 1, -1)


def _eta6_coeffs(length: int) -> np.ndarray:
    """Coefficients of prod (1-x^n)^6 up to x^(length-1).

    The square of Jacobi's sparse series: about sqrt(2*length) terms give
    fewer than 2*length products, each far inside int64.
    """
    expo, coeff = _jacobi_series(length)
    idx = (expo[:, None] + expo[None, :]).ravel()
    keep = idx < length
    out = np.zeros(length, dtype=np.int64)
    np.add.at(out, idx[keep], (coeff[:, None] * coeff[None, :]).ravel()[keep])
    return out


def _sparse_mul(a: np.ndarray, expo: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """a times sum coeff[i] x^expo[i], truncated to len(a), in int64.

    Every partial sum is at most sum |coeff| * max|a| in size, so the
    product is exact when that bound is below 2^63; otherwise this raises
    OverflowError instead of wrapping.
    """
    if int(np.abs(coeff).sum()) * int(np.abs(a).max(initial=0)) >= 2**63:
        raise OverflowError("sparse product would leave int64")
    n = len(a)
    out = np.zeros_like(a)
    for e, c in zip(expo.tolist(), coeff.tolist()):
        out[e:] += c * a[: n - e]
    return out


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
    jacobi = _jacobi_series(n_max)
    e12 = _sparse_mul(_sparse_mul(_eta6_coeffs(n_max), *jacobi), *jacobi)
    e24 = _poly_square_trunc(e12.tolist(), n_max)
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


def tau_mod(q: int, n_max: int) -> np.ndarray:
    """tau(n) mod q for n = 1..n_max via the congruence shortcuts.

    Returns an array a with a[n] = tau(n) mod q (a[0] is unused and 0).
    """
    if q not in _SUPPORTED_MODULI:
        raise InvalidArgumentError(f"unsupported modulus {q}; expected one of {_SUPPORTED_MODULI}")
    if n_max < 1:
        raise InvalidArgumentError(f"n_max must be >= 1, got {n_max}")
    if n_max > TAU_MOD_DESK_LIMIT:
        raise ResourceLimitError(f"tau_mod desk limit is {TAU_MOD_DESK_LIMIT}, got {n_max}")
    n = np.arange(n_max + 1, dtype=np.int64)
    if q == 2:
        out = np.zeros(n_max + 1, dtype=np.int64)
        out[np.arange(1, math.isqrt(n_max) + 1, 2) ** 2] = 1
        return out
    if q in (3, 5):
        return n * _sigma_power_mod(n_max, 1, q) % q
    if q == 7:
        return n * _sigma_power_mod(n_max, 3, q) % q
    if q == 691:
        return _sigma_power_mod(n_max, 11, q)
    expo, sign = _pentagonal_series(n_max, 1)
    outer_expo, outer_sign = _pentagonal_series(n_max, 23)
    out = np.zeros(n_max + 1, dtype=np.int64)  # out[n] = [x^(n-1)] E(x) E(x^23)
    for g, s in zip(outer_expo.tolist(), outer_sign.tolist()):
        cut = int(np.searchsorted(expo, n_max - g))  # the terms with g + e < n_max
        out[1 + g + expo[:cut]] += s * sign[:cut]
    return out % 23


def lambda_mod3(n_max: int) -> np.ndarray:
    """Partition counts lambda(0..n_max) mod 3, parts not divisible by 9: E^6 * E * E mod 3."""
    if n_max < 0:
        raise InvalidArgumentError(f"n_max must be >= 0, got {n_max}")
    if n_max > TAU_DESK_LIMIT:
        raise ResourceLimitError(f"lambda_mod3 desk limit is {TAU_DESK_LIMIT}, got {n_max}")
    length = n_max + 1
    pentagonal = _pentagonal_series(length, 1)
    a = _eta6_coeffs(length) % 3
    for _ in range(2):
        a = _sparse_mul(a, *pentagonal) % 3
    return a.astype(np.uint8)


def odd_tau_count(x: int) -> int:
    """#{n <= x : tau(n) odd} = floor((1 + sqrt(x)) / 2), integer square root only."""
    x = int(x)
    if x < 0:
        raise InvalidArgumentError(f"x must be >= 0, got {x}")
    return (math.isqrt(x) + 1) // 2
