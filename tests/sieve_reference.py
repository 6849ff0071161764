"""The sieve route to prime log-sums: a cross-check of the exact class sums.

prime_log_sum sums a class of primes up to a cutoff x >= 7481 and bounds
the rest by

    sum_{p > x} log p / (p^k - 1) <= x/(x^k - 1) * (-0.98 + 1.017 k/(k-1)),

a consequence of 0.98 x <= theta(x) <= 1.017 x on that range; a class sum's
tail is bounded by the all-primes tail.
"""

from __future__ import annotations

import math

import numpy as np

from lrlab.budget import ValueWithBudget
from lrlab.errors import PreconditionError
from lrlab.lseries import _EPS, _LOG_FLOOR
from lrlab.primes import sieve_primes

# 0.98 x <= theta(x) <= 1.017 x for x >= 7481.
THETA_LO = 0.98
THETA_HI = 1.017
THETA_X_MIN = 7481


def prime_tail_bound(k: float, x: float) -> float:
    """Upper bound for sum_{p > x} log p / (p^k - 1); needs k > 1, x >= 7481."""
    if k <= 1:
        raise PreconditionError(f"tail bound needs k > 1, got {k}")
    if x < THETA_X_MIN:
        raise PreconditionError(f"tail bound needs x >= {THETA_X_MIN}, got {x}")
    r = math.exp(-k * math.log(x))  # x^(-k), 0 when it underflows
    return x * r / (1.0 - r) * (-THETA_LO + THETA_HI * k / (k - 1.0))


def _largest_term_prime(k: int, cutoff: int) -> int:
    """prime_partial_sum reads the primes up to this bound: p <= cutoff, p^k <= e^690."""
    return cutoff if k * math.log(cutoff) <= _LOG_FLOOR else int(math.exp(_LOG_FLOOR / k))


def class_primes(mask, cutoff: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes of a class and their logs, as far as prime_partial_sum
    reads them for exponents >= k.  ``mask`` is None (all primes) or a
    boolean mask aligned with sieve_primes(cutoff).primes."""
    table = sieve_primes(cutoff)
    # an int key: a float one would convert the whole prime array
    n = int(np.searchsorted(table.primes, _largest_term_prime(k, cutoff), side="right"))
    keep = slice(n) if mask is None else np.asarray(mask, dtype=bool)[:n]
    return table.primes[:n][keep], table.logs[:n][keep]


def prime_partial_sum(members, k: int, cutoff: int) -> ValueWithBudget:
    """sum_{p <= cutoff, p in class} log p / (p^k - 1), with a rounding budget.

    ``members`` is None (all primes), a boolean mask aligned with
    sieve_primes(cutoff).primes, or what class_primes returns for one; a
    caller that sums one class for several k gathers it once that way.
    Each term is log p r/(1 - r) with r = p^(-k), off by at most 4 ulps;
    primes with p^k > e^690 are left out, so r never underflows.  Each term
    left out is below 1e-295, and all of them together are far below the
    one ulp of 1 in the budget.
    """
    if k < 2:
        raise PreconditionError(f"prime sums need k >= 2, got {k}")
    cutoff = int(cutoff)
    primes, logs = members if isinstance(members, tuple) else class_primes(members, cutoff, k)
    n = int(np.searchsorted(primes, _largest_term_prime(k, cutoff), side="right"))
    r = primes[:n].astype(np.float64) ** -float(k)
    value = math.fsum(logs[:n] * r / (1.0 - r))
    return ValueWithBudget(value, _EPS * (4.0 * value + 1.0))


def prime_log_sum(members, k: int, cutoff: int) -> ValueWithBudget:
    """sum_{p in class} log p / (p^k - 1) by the sieve: the partial sum to the
    cutoff (prime_partial_sum) plus the theta bound on the class tail."""
    cutoff = int(cutoff)
    if cutoff < THETA_X_MIN:
        raise PreconditionError(f"tail budget needs cutoff >= {THETA_X_MIN}, got {cutoff}")
    partial = prime_partial_sum(members, k, cutoff)
    return ValueWithBudget(partial.value, prime_tail_bound(k, float(cutoff)) + partial.budget)
