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
    tau(n) = n*sigma_1(n)   (mod 2, 3 and 5)
    tau(n) = n*sigma_3(n)   (mod 7)
    tau(n) = sigma_11(n)    (mod 691)
    tau(n) = [x^n] x E(x) E(x^23)   (mod 23)

The first three lines are one rule, tau(n) = n^v sigma_w(n) (mod q), kept as
data (_TAU_CONGRUENCES, q: (v, w)); multfn derives the cases "q does not
divide tau(n)" for these q from the same table.  Mod 2 the rule says that
tau(n) is odd iff n is an odd square (n sigma_1(n) is odd iff n is odd and
sigma_1(n) is, i.e. n an odd square), which tau_mod reads off directly:
the divisor sieve gives the same array, in 5 ms against 0.02 ms at 1e5 (a
2-vCPU Xeon).  The mod-23 line is the product behind Wilton's congruence
for tau(p) mod 23: (1 - x^k)^23 = 1 - x^(23k) mod 23, so Delta = x E^24 =
x E(x) E(x^23).  Both factors are Euler's pentagonal series E = sum_{k in
Z} (-1)^k x^(k(3k-1)/2), so the product is one fancy-indexed add of E's
terms per term of E(x^23).

tau(n) mod q does not depend on how far it is computed, so tau_mod keeps,
per q, one read-only table for the largest n_max up to TAU_DESK_LIMIT asked
for, in the narrowest unsigned dtype that holds q - 1 (at most about 0.7 MB
for all six q at the desk limit), and rebuilds it only for a larger n_max.
A cold call pays for the build plus one dtype conversion each way; a warm
one copies a prefix.

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

from . import _args

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
        return self.values[_args.integer(n, "n", 1, self.n_max) - 1]


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


def tau_exact(n_max: int) -> TauWindow:
    """Exact tau(1..n_max) from x * prod (1-x^n)^24, cached for the last two n_max."""
    return _tau_exact(_args.integer(n_max, "n_max", 1, TAU_DESK_LIMIT, "tau_exact desk"))  # before the cache


@lru_cache(maxsize=2)
def _tau_exact(n_max: int) -> TauWindow:
    jacobi = _jacobi_series(n_max)
    e12 = _sparse_mul(_sparse_mul(_eta6_coeffs(n_max), *jacobi), *jacobi)
    return TauWindow(n_max, _fft_square_trunc(e12, n_max))


tau_exact.cache_info = _tau_exact.cache_info
tau_exact.cache_clear = _tau_exact.cache_clear


# tau(n) = n^v sigma_w(n) (mod q) for q: (v, w) (module docstring)
_TAU_CONGRUENCES = {2: (1, 1), 3: (1, 1), 5: (1, 1), 7: (1, 3), 691: (0, 11)}
_TAU_MODULI = tuple(sorted((*_TAU_CONGRUENCES, 23)))  # tau_mod's moduli, 23 by x E(x) E(x^23)


def _sigma_power_mod(n_max: int, power: int, q: int) -> np.ndarray:
    """sigma_power(n) mod q for n = 0..n_max via a two-sided divisor sieve.

    The weight d^power mod q of each d is read off a table of
    r^power mod q over the q residues r.  Each divisor pair
    d * j = n is added once: by a slice over the multiples of d for
    d <= sqrt(n_max), and for larger d, which only meet cofactors
    j < sqrt(n_max), by a slice over the multiples j*d of each cofactor j.
    """
    residue_powers = np.array([pow(r, power, q) for r in range(q)], dtype=np.int64)
    weight = residue_powers[np.arange(n_max + 1) % q]  # d^power mod q
    sig = np.zeros(n_max + 1, dtype=np.int64)
    root = math.isqrt(n_max)
    for d in range(1, root + 1):
        sig[d::d] += weight[d]
    for j in range(1, n_max // (root + 1) + 1):
        top = n_max // j  # d runs over root+1 .. top
        sig[j * (root + 1) : j * top + 1 : j] += weight[root + 1 : top + 1]
    return sig % q


# q -> tau(n) mod q for n = 0..N, read-only, for the largest N <= TAU_DESK_LIMIT
# that tau_mod was asked for (tau_mod's docstring)
_tau_mod_tables: dict[int, np.ndarray] = {}


def _tau_mod_build(q: int, n_max: int) -> np.ndarray:
    """tau(n) mod q for n = 0..n_max (0 at n = 0) in int64, via the congruence shortcuts."""
    if q == 2:  # _TAU_CONGRUENCES[2] read off: n sigma_1(n) is odd iff n is an odd square
        out = np.zeros(n_max + 1, dtype=np.int64)
        out[np.arange(1, math.isqrt(n_max) + 1, 2) ** 2] = 1
        return out
    if q in _TAU_CONGRUENCES:
        v, w = _TAU_CONGRUENCES[q]
        return np.arange(n_max + 1, dtype=np.int64) ** v * _sigma_power_mod(n_max, w, q) % q
    expo, sign = _pentagonal_series(n_max, 1)
    outer_expo, outer_sign = _pentagonal_series(n_max, 23)
    out = np.zeros(n_max + 1, dtype=np.int64)  # out[n] = [x^(n-1)] E(x) E(x^23)
    for g, s in zip(outer_expo.tolist(), outer_sign.tolist()):
        cut = int(np.searchsorted(expo, n_max - g))  # the terms with g + e < n_max
        out[1 + g + expo[:cut]] += s * sign[:cut]
    return out % 23


def tau_mod(q: int, n_max: int) -> np.ndarray:
    """tau(n) mod q for n = 1..n_max via the congruence shortcuts.

    Returns a fresh, writable int64 array a with a[n] = tau(n) mod q (a[0]
    is unused and 0).  tau(n) mod q does not depend on n_max, so for each q
    one table of tau(n) mod q for n = 0..N is kept, read-only, in
    np.min_scalar_type(q - 1) (uint8, or uint16 for 691), where N is the
    largest n_max <= TAU_DESK_LIMIT asked for so far; all six hold at most
    about 0.7 MB.  A call with n_max <= N copies a prefix of it, a larger
    n_max <= TAU_DESK_LIMIT rebuilds it at that n_max, and a call above
    TAU_DESK_LIMIT builds its answer and keeps nothing.  A cold call pays
    for the build plus one dtype conversion each way: 1-4% over the build
    alone at 1e4 and about 10% at 1e5 (0.64 and 6.4 ms, on a 2-vCPU Xeon),
    where a warm call takes about 6 us at 1e4.
    """
    q = _args.tag(q, _TAU_MODULI, "modulus")  # an int: three-argument pow takes no numpy int
    n_max = _args.integer(n_max, "n_max", 1, TAU_MOD_DESK_LIMIT, "tau_mod desk")
    if n_max > TAU_DESK_LIMIT:
        return _tau_mod_build(q, n_max)
    table = _tau_mod_tables.get(q)  # one read: a call copies from the table it checked
    if table is None or n_max >= len(table):
        table = _tau_mod_build(q, n_max).astype(np.min_scalar_type(q - 1))
        table.flags.writeable = False
        _tau_mod_tables[q] = table
    return table[: n_max + 1].astype(np.int64)


def lambda_mod3(n_max: int) -> np.ndarray:
    """Partition counts lambda(0..n_max) mod 3, parts not divisible by 9: E^6 * E * E mod 3."""
    length = _args.integer(n_max, "n_max", 0, TAU_DESK_LIMIT, "lambda_mod3 desk") + 1
    pentagonal = _pentagonal_series(length, 1)
    a = _eta6_coeffs(length) % 3
    for _ in range(2):
        a = _sparse_mul(a, *pentagonal) % 3
    return a.astype(np.uint8)


def odd_tau_count(x: int) -> int:
    """#{n <= x : tau(n) odd} = floor((1 + sqrt(x)) / 2) by the integer square root; x is truncated."""
    return (math.isqrt(_args.integer(x, "x", 0, truncate=True)) + 1) // 2
