"""Prime generation and the Wilton classes mod 23.

Provides a segmented sieve of Eratosthenes with a fixed segment size (so
enumeration order is deterministic) and the Wilton classes of primes
modulo 23, as codes W_S1, W_S2, W_S3, W_P23:

    S1 : (p|23) = -1
    S3 : p = U^2 + 23 V^2 with U != 0
    S2 : the remaining primes != 23
    P23: p = 23

S1, S2, S3 have natural densities 1/2, 1/3, 1/6.  (p|23) comes from
Euler's criterion p^11 mod 23.  `wilton_classes` decides S3 from the table
of values U^2 + 23 V^2; `wilton_codes_cubic` decides it independently
through solvability of x^3 = x + 1 (mod p), and both routes must agree
(the cubic x^3 - x - 1 has discriminant -23).

The independent classifier tests solvability without a scan over x.  For
p != 23, f = x^3 - x - 1 is squarefree mod p and Frobenius permutes its
three roots; the permutation is even iff the discriminant -23 is a square
mod p, and (-23|p) = (p|23) by quadratic reciprocity.  So when (p|23) = 1,
f has either no root or three roots mod p, and three roots means f divides
x^p - x, i.e. x^p = x mod (f, p).  `cubic_splits` evaluates x^p mod (f, p)
by square-and-multiply on degree-2 residues, for a whole array of primes at
once.  It also decides p = 2 correctly: f = x^3 + x + 1 is irreducible mod 2
and x^2 != x.  The scalar references (the U^2 + 23 V^2 search, the
exhaustive root scan) live with the tests, in tests/scalar_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError

__all__ = [
    "PrimeTable",
    "PRIME_DESK_LIMIT",
    "sieve_primes",
    "cubic_splits",
    "wilton_classes",
    "wilton_codes_cubic",
    "W_S1",
    "W_S2",
    "W_S3",
    "W_P23",
]

SEGMENT_SIZE = 1 << 20
PRIME_DESK_LIMIT = 10**8  # the 5.8e6 primes below it take 46 MB


@dataclass
class PrimeTable:
    """All primes <= limit, ascending, as a read-only int64 array.

    ``source`` is the larger table this one is a prefix of, if any; the
    logs are then a prefix of its logs.
    """

    limit: int
    primes: np.ndarray
    source: "PrimeTable | None" = None

    def __post_init__(self):
        self.primes.flags.writeable = False
        self._logs = None

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def logs(self) -> np.ndarray:
        if self._logs is None:
            if self.source is not None:
                logs = self.source.logs[: len(self.primes)]
            else:
                logs = np.log(self.primes.astype(np.float64))
                logs.flags.writeable = False
            self._logs = logs
        return self._logs


def _simple_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _segmented_sieve(limit: int) -> np.ndarray:
    base = _simple_sieve(math.isqrt(limit))
    chunks = []
    lo = 2
    while lo <= limit:
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            mask[start - lo :: p] = False
        chunks.append((lo + np.flatnonzero(mask)).astype(np.int64))
        lo = hi
    return np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)


_largest: PrimeTable | None = None  # the table of the largest limit sieved so far


@lru_cache(maxsize=16)
def _sieve_cached(limit: int) -> PrimeTable:
    """Sieve past the largest limit seen so far, else slice its table."""
    global _largest
    if _largest is None or _largest.limit < limit:
        _largest = PrimeTable(limit, _segmented_sieve(limit))
    if _largest.limit == limit:
        return _largest
    n = int(np.searchsorted(_largest.primes, limit, side="right"))
    return PrimeTable(limit, _largest.primes[:n], _largest)


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit, ascending (segmented sieve, deterministic)."""
    limit = int(limit)
    if limit < 2:
        raise InvalidArgumentError(f"sieve limit must be >= 2, got {limit}")
    if limit > PRIME_DESK_LIMIT:
        raise ResourceLimitError(f"prime sieve desk limit is {PRIME_DESK_LIMIT}, got {limit}")
    return _sieve_cached(limit)


# ---------------------------------------------------------------------------
# Wilton classes mod 23
# ---------------------------------------------------------------------------

# (r|23) by Euler's criterion r^11 = +-1 (mod 23); 0 at r = 0
_KRON23 = np.array([0] + [1 if pow(r, 11, 23) == 1 else -1 for r in range(1, 23)], dtype=np.int8)


# x^p is reduced mod p after each product of two residues below p, so every
# intermediate stays below p^2 < 2^63.
_SPLIT_P_LIMIT = 3 * 10**9


def cubic_splits(primes) -> np.ndarray:
    """x^p = x mod (x^3 - x - 1, p) for each prime p: does the cubic split mod p?

    Left-to-right square-and-multiply on residues a + b x + c x^2 (int64),
    using x^3 = x + 1 and x^4 = x^2 + x, over all primes at once.  When
    (p|23) = 1 this decides x^3 = x + 1 (mod p) exactly (module docstring).
    """
    p = np.asarray(primes, dtype=np.int64)
    if not p.size:
        return np.zeros(0, dtype=bool)
    if int(p.min()) < 2 or int(p.max()) >= _SPLIT_P_LIMIT:
        raise InvalidArgumentError(f"primes must lie in [2, {_SPLIT_P_LIMIT}) for the int64 split test")
    a, b, c = np.ones_like(p), np.zeros_like(p), np.zeros_like(p)
    for bit in reversed(range(int(p.max()).bit_length())):
        aa, bb, cc = a * a % p, b * b % p, c * c % p
        ab, ac, bc = a * b % p, a * c % p, b * c % p
        a, b, c = (aa + 2 * bc) % p, (2 * ab + 2 * bc + cc) % p, (bb + 2 * ac + cc) % p
        odd = ((p >> bit) & 1).astype(bool)
        # (a + b x + c x^2) x = c + (a + c) x + b x^2
        a, b, c = np.where(odd, c, a), np.where(odd, (a + c) % p, b), np.where(odd, b, c)
    return (a == 0) & (b == 1) & (c == 0)


@lru_cache(maxsize=4)
def _form_values_mask(limit: int) -> np.ndarray:
    """mask[n] = True iff n = u^2 + 23 v^2 for some u >= 1, v >= 1, n <= limit."""
    mask = np.zeros(limit + 1, dtype=bool)
    v = 1
    while 23 * v * v < limit:
        umax = math.isqrt(limit - 23 * v * v)
        if umax >= 1:
            u = np.arange(1, umax + 1, dtype=np.int64)
            mask[u * u + 23 * v * v] = True
        v += 1
    mask.flags.writeable = False
    return mask


# Class codes.
W_S1, W_S2, W_S3, W_P23 = 0, 1, 2, 3


def _wilton_codes(p: np.ndarray, is_s3) -> np.ndarray:
    """Class codes for the primes p; is_s3 decides S3 among those with (p|23) = 1."""
    qr = _KRON23[p % 23]
    codes = np.full(len(p), W_S2, dtype=np.uint8)
    codes[qr == -1] = W_S1
    residue = qr == 1
    codes[np.flatnonzero(residue)[is_s3(p[residue])]] = W_S3
    codes[p == 23] = W_P23
    return codes


def wilton_classes(primes) -> np.ndarray:
    """Wilton class code of each prime in an array.

    S3 is decided by the table of values U^2 + 23 V^2 up to the largest
    prime, or by the equivalent split test when that table would hold more
    than 64 entries per prime (a handful of primes, or a single one).
    """
    p = np.asarray(primes, dtype=np.int64)
    top = int(p.max(initial=0))
    if top > 64 * len(p):
        return _wilton_codes(p, cubic_splits)
    form = _form_values_mask(top)
    return _wilton_codes(p, lambda q: form[q])


def wilton_codes_cubic(limit: int) -> np.ndarray:
    """Wilton class code for each prime <= limit (order matches sieve_primes),
    with S3 decided by `cubic_splits`."""
    return _wilton_codes(sieve_primes(limit).primes, cubic_splits)
