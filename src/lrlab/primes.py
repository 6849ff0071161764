"""Prime generation and the Wilton classes mod 23.

Provides a segmented sieve of Eratosthenes over the odd numbers, whose
fixed segment size (one bool per odd n) bounds its working memory, and the
Wilton classes of primes modulo 23, as codes W_S1, W_S2, W_S3, W_P23:

    S1 : (p|23) = -1
    S3 : p = U^2 + 23 V^2 with U != 0
    S2 : the remaining primes != 23
    P23: p = 23

S1, S2, S3 (the transpositions, 3-cycles and identity of S_3 = Gal(H/Q),
H the Hilbert class field of Q(sqrt(-23))) have natural densities 1/2,
1/3, 1/6.  Wilton's table (WILTON_*; Swinnerton-Dyer, LNM 350, 1973) is
kept here alone, and `wilton_classes` decides S3 from the table of values
U^2 + 23 V^2.  The scalar reference (the U^2 + 23 V^2 search) and the
split test of x^3 - x - 1, whose discriminant is -23, live with the tests,
in tests/scalar_reference.py.

sieve_primes keeps one table, of the largest limit sieved so far, and
serves every limit by a read-only view of it, with the last 16 views in an
lru_cache.  A larger limit sieves afresh and clears that cache first, so no
cached view keeps a superseded table alive; a caller's own view keeps it
only while the caller holds it.  The first n primes are the same in every
table, so the logs kept for h_f (_prime_logs) are those of a prefix, as
long as the largest n asked for, and a new table never makes them stale.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _args

__all__ = [
    "PRIME_DESK_LIMIT",
    "sieve_primes",
    "wilton_classes",
    "W_S1",
    "W_S2",
    "W_S3",
    "W_P23",
    "WILTON_RESIDUES", "WILTON_SIZE", "WILTON_ORDER", "WILTON_TRACE",  # Wilton's table
]

SEGMENT_SIZE = 1 << 20
PRIME_DESK_LIMIT = 10**8  # the 5.8e6 primes below it take 46 MB


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


_largest_limit = 1  # the largest limit sieved so far, not the table's last prime
_largest = np.zeros(0, dtype=np.int64)  # the primes <= _largest_limit, read-only
_logs = np.zeros(0)  # log p of a prefix of the primes, read-only
_largest.flags.writeable = _logs.flags.writeable = False


@lru_cache(maxsize=16)
def _sieve_cached(limit: int) -> np.ndarray:
    """Sieve past the largest limit seen so far, else slice its table."""
    global _largest, _largest_limit
    if _largest_limit < limit:
        _largest = _segmented_sieve(limit)
        _largest.flags.writeable = False
        _largest_limit = limit
    return _largest[: int(_largest.searchsorted(limit, side="right"))]


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 array, a view of
    the largest table (segmented sieve, deterministic); a float limit is
    truncated."""
    limit = _args.integer(limit, "sieve limit", 2, PRIME_DESK_LIMIT, "prime sieve desk", truncate=True)
    if _largest_limit < limit:
        _sieve_cached.cache_clear()  # its views would pin the table this sieve supersedes
    return _sieve_cached(limit)


def _prime_logs(n: int) -> np.ndarray:
    """log p of the first n primes of the largest table (n at most its
    length), read-only: a view of the kept prefix, grown to n if shorter."""
    global _logs
    if len(_logs) < n:
        _logs = np.concatenate((_logs, np.log(_largest[len(_logs) : n].astype(np.float64))))
        _logs.flags.writeable = False
    return _logs[:n]


# ---------------------------------------------------------------------------
# Wilton classes mod 23
# ---------------------------------------------------------------------------

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

# Wilton's table: the class of each residue r mod 23 (P23 at 0, S1 where (r|23) = -1 by Euler's
# criterion r^11 = -1, else S2, which S3 splits), and on S1, S2, S3 the class size, the order of
# its elements and rho's trace = tau(p) (mod 23), with tau(23) = 1 (mod 23) at P23
WILTON_RESIDUES = tuple(W_P23 if r == 0 else W_S1 if pow(r, 11, 23) == 22 else W_S2 for r in range(23))
WILTON_SIZE, WILTON_ORDER, WILTON_TRACE = (3, 2, 1), (2, 3, 1), (0, -1, 2, 1)


def wilton_classes(primes) -> np.ndarray:
    """Wilton class code of each prime in an array, S3 decided by the table
    of values U^2 + 23 V^2 between the smallest and the largest prime."""
    p = _args.int_array(primes, "primes")
    lo = _args.integer(int(p.min()) if p.size else 2, "the least prime", 2)
    top = _args.integer(int(p.max()) if p.size else 2, "the largest prime", None, PRIME_DESK_LIMIT,
                        "Wilton class desk")
    codes = np.array(WILTON_RESIDUES, dtype=np.uint8)[p % 23]
    residue = np.flatnonzero(codes == W_S2)
    codes[residue[_form_values_mask(lo, top)[p[residue] - lo]]] = W_S3
    return codes
