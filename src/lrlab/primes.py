"""Prime generation and the Wilton classes mod 23.

Provides a segmented sieve of Eratosthenes over the odd numbers, whose
fixed segment size (one bool per odd n) bounds its working memory, and the
Wilton classes of primes modulo 23, as codes W_S1, W_S2, W_S3, W_P23:

    S1 : (p|23) = -1
    S3 : p = U^2 + 23 V^2 with U != 0
    S2 : the remaining primes != 23
    P23: p = 23

S1, S2, S3 have natural densities 1/2, 1/3, 1/6.  (p|23) comes from
Euler's criterion p^11 mod 23, and `wilton_classes` decides S3 from the
table of values U^2 + 23 V^2.  The scalar reference (the U^2 + 23 V^2
search) and the split test of x^3 - x - 1, whose discriminant is -23, live
with the tests, in tests/scalar_reference.py.

sieve_primes keeps one table, of the largest limit sieved so far, and
serves a smaller limit by a PrimeTable whose primes are a read-only view of
that table's, with the last 16 slices in an lru_cache.  A larger limit
sieves afresh and clears that cache first, so no cached slice keeps a
superseded table's primes alive; a caller's own slice keeps them only while
the caller holds it.  A slice's logs, if asked for, are its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _args

__all__ = [
    "PrimeTable",
    "PRIME_DESK_LIMIT",
    "sieve_primes",
    "wilton_classes",
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

    The fields' types are checked when a table is made, not that the
    primes are the primes <= limit.  A read-only int64 array, such as a
    slice of the sieve's table, is kept as it is; any other array is
    copied, so the caller's own stays writable.
    """

    limit: int
    primes: np.ndarray

    def __post_init__(self):
        self.limit = _args.integer(self.limit, "limit", 2)
        self.primes = _args.int_array(self.primes, "primes")
        if self.primes.flags.writeable:
            self.primes = self.primes.copy()
            self.primes.flags.writeable = False
        self._logs = None

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def logs(self) -> np.ndarray:
        if self._logs is None:
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
    """All primes <= limit (>= 2): 2, then the odd primes, one window at a time.

    A window holds one bool per odd n: its at most SEGMENT_SIZE entries
    cover up to 2*SEGMENT_SIZE integers, and one buffer, the size of the
    first window, serves them all.  Only the odd base primes mark it: an
    odd multiple of p is p*(p + 2j) for j >= 0, so p's marks are p apart
    in the window, from the first odd multiple >= max(p*p, lo).
    """
    base = _simple_sieve(math.isqrt(limit))[1:].tolist()
    chunks = [np.array([2], dtype=np.int64)]
    lo = 3
    seg = np.empty(min(SEGMENT_SIZE, (limit - 1) // 2), dtype=bool)
    while lo <= limit:
        size = min(SEGMENT_SIZE, (limit - lo) // 2 + 1)
        hi = lo + 2 * size  # the window holds the odd n in [lo, hi)
        mask = seg[:size]
        mask[:] = True
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            mask[(start - lo) // 2 :: p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64, copy=False) * 2 + lo)
        lo = hi
    return np.concatenate(chunks)


_largest: PrimeTable | None = None  # the table of the largest limit sieved so far


@lru_cache(maxsize=16)
def _sieve_cached(limit: int) -> PrimeTable:
    """Sieve past the largest limit seen so far, else slice its table."""
    global _largest
    if _largest is None or _largest.limit < limit:
        primes = _segmented_sieve(limit)
        primes.flags.writeable = False  # the table keeps it, uncopied
        _largest = PrimeTable(limit, primes)
    if _largest.limit == limit:
        return _largest
    n = int(np.searchsorted(_largest.primes, limit, side="right"))
    return PrimeTable(limit, _largest.primes[:n])


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit, ascending (segmented sieve, deterministic); a
    float limit is truncated."""
    limit = _args.integer(limit, "sieve limit", 2, PRIME_DESK_LIMIT, "prime sieve desk", truncate=True)
    if _largest is not None and _largest.limit < limit:
        _sieve_cached.cache_clear()  # its slices would pin the table this sieve supersedes
    return _sieve_cached(limit)


# ---------------------------------------------------------------------------
# Wilton classes mod 23
# ---------------------------------------------------------------------------

# (r|23) by Euler's criterion r^11 = +-1 (mod 23); 0 at r = 0
_KRON23 = np.array([0] + [1 if pow(r, 11, 23) == 1 else -1 for r in range(1, 23)], dtype=np.int8)


def _form_values_mask(lo: int, hi: int) -> np.ndarray:
    """mask[n - lo] = True iff n = u^2 + 23 v^2 for some u >= 1, v >= 1, lo <= n <= hi."""
    mask = np.zeros(hi - lo + 1, dtype=bool)
    for v in range(1, math.isqrt(hi // 23) + 1):
        w = 23 * v * v  # u runs from ceil(sqrt(lo - w)), and from 1 when lo <= w
        u = np.arange(math.isqrt(max(lo - w - 1, 0)) + 1, math.isqrt(hi - w) + 1, dtype=np.int64)
        mask[u * u + (w - lo)] = True
    return mask


# Class codes.
W_S1, W_S2, W_S3, W_P23 = 0, 1, 2, 3


def wilton_classes(primes) -> np.ndarray:
    """Wilton class code of each prime in an array, S3 decided by the table
    of values U^2 + 23 V^2 between the smallest and the largest prime."""
    p = _args.int_array(primes, "primes")
    lo = _args.integer(int(p.min()) if p.size else 2, "the least prime", 2)
    top = _args.integer(int(p.max()) if p.size else 2, "the largest prime", None, PRIME_DESK_LIMIT,
                        "Wilton class desk")
    qr = _KRON23[p % 23]
    codes = np.full(len(p), W_S2, dtype=np.uint8)
    codes[qr == -1] = W_S1
    residue = np.flatnonzero(qr == 1)
    codes[residue[_form_values_mask(lo, top)[p[residue] - lo]]] = W_S3
    codes[p == 23] = W_P23
    return codes
