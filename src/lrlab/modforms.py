"""Exact desk-scale oracles for tau(n), tau(n) mod q, and partition counts.

tau(n) are the coefficients of x * prod_{n>=1} (1 - x^n)^24, computed in
exact integer arithmetic.  The expansion goes through Jacobi's identity

    prod (1 - x^n)^3 = sum_{k>=0} (-1)^k (2k+1) x^{k(k+1)/2},

whose few nonzero terms give, with E = prod (1 - x^n), E^6 by a sparse
convolution and E^12 = E^6 * E^3 * E^3 by two int64 passes, one slice-add
per term of the series.  Each pass first checks that sum |c| * max|a| <
2^63, which bounds every partial sum, and raises rather than wraps.  E^24
is then one truncated squaring by a float64 FFT.  Every coefficient of
E^12 (below 2^46 at n = 1e5) is split into balanced 12-bit limbs,
|d| <= 2^11, four at the desk limit, and each limb is transformed once.
The output limbs are then formed one at a time (the pointwise sum of
F_p * F_q over p + q = k, one inverse transform, rounded to integers) and
folded into an int64 carry chain, so only one output limb is held at a
time.  Before any transform the code checks Percival's bound on the
rounding error of every output limb, computed from the Euclidean norms of
the limbs, against 1/4 (it is 0.018 at the desk limit), and raises rather
than rounds wrongly.

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

_LIMB_BITS = 12
_LOW_LIMBS = 5  # output limbs 0..4 fill the low 60-bit word of each coefficient
_UNIT_ROUNDOFF = 2.0**-53
_TWIDDLE_ERROR = 2.0**-51  # assumed bound on |computed - exact| for numpy's roots of unity


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


def _balanced_limbs(a: np.ndarray) -> list[np.ndarray]:
    """Digits d_j of a = sum_j d_j 2^(12 j) with -2^11 <= d_j < 2^11, lowest first.

    As many as the largest |a| needs, at least one.  Each step takes the
    residue r of the rest mod 2^12 and carries 1 when r >= 2^11, so no
    intermediate leaves int64.
    """
    limbs = []
    rest = a
    while True:
        r = rest & (2**_LIMB_BITS - 1)
        up = r >= 2 ** (_LIMB_BITS - 1)
        limbs.append(r - up * 2**_LIMB_BITS)
        rest = (rest >> _LIMB_BITS) + up
        if not rest.any():
            return limbs


def _square_bounds(limbs: list[np.ndarray], size: int) -> tuple[float, float]:
    """(rounding, high): the a-priori bounds of _fft_square_trunc.

    With S_k = sum_{p+q=k} |d_p| |d_q| over the Euclidean norms of the
    limbs, rounding = max_k S_k * c * 2^-53 bounds the error of every
    computed output limb, and high = sum_{k>=5} S_k 2^(12(k-5)) + max_k S_k
    bounds the high word of the carry chain and its carry in.
    """
    norms = [math.sqrt(int(d @ d)) for d in limbs]
    count, m = len(norms), size.bit_length() - 1
    s = [
        sum(norms[p] * norms[k - p] for p in range(max(0, k - count + 1), min(k, count - 1) + 1))
        for k in range(2 * count - 1)
    ]
    factor = math.expm1(
        (3 * m + count - 1) * math.log1p(_UNIT_ROUNDOFF)
        + (3 * m + 1) * math.log1p(math.sqrt(5) * _UNIT_ROUNDOFF)
        + 3 * m * math.log1p(_TWIDDLE_ERROR)
    )
    high = max(s) + sum(s[k] * 2.0 ** (_LIMB_BITS * (k - _LOW_LIMBS)) for k in range(_LOW_LIMBS, len(s)))
    return max(s) * factor, high


def _fft_square_trunc(a: np.ndarray, length: int) -> list[int]:
    """The low ``length`` coefficients of a(x)^2, exactly, for an int64 array a.

    Each coefficient is split into balanced 12-bit limbs d_0..d_{L-1}, so
    a = sum_p d_p 2^(12 p) and output limb k = 0..2L-2 is the convolution
    sum_{p+q=k} d_p * d_q.  Each limb goes through one rfft of size N, a
    power of two >= 2n - 1 (n = min(len(a), length)), so the cyclic
    convolution is the linear one.  Output limbs are made one at a time:
    the pointwise sum of F_p F_q, one irfft, rint, and a fold into an int64
    carry chain (limbs 0..4 into a low 60-bit word, the rest into a high
    word), so one output limb is held at a time.

    Rounding.  Percival's theorem (Percival 2003; Brent and Zimmermann,
    Modern Computer Arithmetic, Thm 3.3.2): if the cyclic convolution x * y
    is computed by radix-2 transforms of size N = 2^m in arithmetic with
    unit roundoff u, with twiddle factors in error by at most beta, every
    entry is within
        |x| |y| ((1+u)^(3m) (1+sqrt(5) u)^(3m+1) (1+beta)^(3m) - 1)
    of exact, |.| the Euclidean norm.  An output limb sums up to L such
    products before one inverse transform, so |x| |y| becomes S_k =
    sum_{p+q=k} |d_p| |d_q| and the sum's L - 1 additions add (1+u)^(L-1).
    The bound is S_k c u, with c = 21.7 m + L + 1.2 at u = 2^-53 and
    beta = 2^-51 (c = 396 at N = 2^18, L = 4).  It rests on two
    assumptions about numpy's pocketfft: its twiddle factors are within
    beta = 4u of the true roots of unity, and its real transforms obey the
    radix-2 error model.  If the bound is not below 1/4, or the high word
    could leave int64, this raises OverflowError before any transform.
    After each inverse transform, any value 1/4 or more from the nearest
    integer also raises, which catches a gross failure of either
    assumption (the largest distance seen at the desk limit is 1.9e-6).
    S_k also bounds every entry of output limb k (Cauchy-Schwarz), so a
    rounding bound below 1/4 keeps each limb below 2^53 / c in int64.
    """
    a = a[:length]
    n = len(a)
    take = min(length, 2 * n - 1)
    size = 1 << (2 * n - 2).bit_length()
    limbs = _balanced_limbs(a)
    count = len(limbs)
    rounding, high = _square_bounds(limbs, size)
    if rounding >= 0.25:
        raise OverflowError(f"FFT square could round wrongly: error bound {rounding:.3g} >= 1/4")
    if high >= 2**62:
        raise OverflowError("FFT square's high word would leave int64")
    spectra = [np.fft.rfft(d, size) for d in limbs]
    del limbs
    lo = np.zeros(take, dtype=np.int64)
    hi = np.zeros(take, dtype=np.int64)  # the carry out of the low word, then the high word
    for k in range(2 * count - 1):
        pairs = range(max(0, k - count + 1), (k + 1) // 2)  # p < q = k - p, each counted twice
        spec = 2 * sum(spectra[p] * spectra[k - p] for p in pairs)
        if k % 2 == 0:
            spec = spec + spectra[k // 2] ** 2
        raw = np.fft.irfft(spec, size)[:take]
        limb = np.rint(raw)
        if np.abs(raw - limb).max() >= 0.25:
            raise OverflowError("FFT square rounded too far from an integer")
        limb = limb.astype(np.int64)
        if k < _LOW_LIMBS:
            limb += hi
            lo |= (limb & (2**_LIMB_BITS - 1)) << (_LIMB_BITS * k)
            hi = limb >> _LIMB_BITS
        else:
            hi += limb << (_LIMB_BITS * (k - _LOW_LIMBS))
    del spectra, spec, raw, limb  # room for the Python ints
    shift = _LIMB_BITS * min(2 * count - 1, _LOW_LIMBS)
    return [(h << shift) | w for h, w in zip(hi.tolist(), lo.tolist())] + [0] * (length - take)


def _check_n_max(n_max, least: int, limit: int, name: str) -> None:
    if not isinstance(n_max, (int, np.integer)):
        raise InvalidArgumentError(f"n_max must be an integer, got {n_max!r}")
    if n_max < least:
        raise InvalidArgumentError(f"n_max must be >= {least}, got {n_max}")
    if n_max > limit:
        raise ResourceLimitError(f"{name} desk limit is {limit}, got {n_max}")


@lru_cache(maxsize=2, typed=True)  # typed: 100.0 must not hit the entry of 100
def tau_exact(n_max: int) -> TauWindow:
    """Exact tau(1..n_max) from x * prod (1-x^n)^24."""
    _check_n_max(n_max, 1, TAU_DESK_LIMIT, "tau_exact")
    jacobi = _jacobi_series(n_max)
    e12 = _sparse_mul(_sparse_mul(_eta6_coeffs(n_max), *jacobi), *jacobi)
    return TauWindow(n_max, _fft_square_trunc(e12, n_max))


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
    _check_n_max(n_max, 1, TAU_MOD_DESK_LIMIT, "tau_mod")
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
    _check_n_max(n_max, 0, TAU_DESK_LIMIT, "lambda_mod3")
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
