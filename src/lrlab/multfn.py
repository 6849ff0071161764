"""Multiplicative-function engine for the seven counting problems.

Each case is an indicator-valued multiplicative function f: f(n) = 1 when
the case's divisibility event fails at n (e.g. q does not divide tau(n)).
On prime powers every case reduces to a single congruence on the exponent:

    f(p^k) = 0  iff  k = -1 (mod m0),

where the period m0 depends only on the prime's classification:

    q3:           p=1(3) -> 3,  p=2(3) -> 2,  p=3 -> ALWAYS 0
    q5:           p=1(5) -> 5,  p=+-2(5) -> 4,  p=4(5) -> 2,  p=5 -> ALWAYS 0
    q7:           QR(7) -> 7,   QNR(7) -> 2,  p=7 -> ALWAYS 0
    q23:          S1 -> 2,  S2 -> 3,  S3 -> 23,  p=23 -> NEVER 0
    q691:         m0 = order of p mod 691 (order 1, i.e. p=1 (691), acts
                  with period 691 per the T(s)^690 identity; p=691 -> NEVER)
    two_squares:  p=3(4) -> 2, otherwise NEVER
    q2:           odd p -> 2, p=2 -> ALWAYS 0   (odd-square indicator)

The generalized von Mangoldt function of f, defined by
f(n) log n = sum_{d|n} f(d) Lambda_f(n/d), is supported on prime powers and
has the closed form

    Lambda_f(p^k) = log p * (1 + m0*[m0 | k] - (m0-1)*[(m0-1) | k])

for finite m0 (log p for NEVER, 0 for ALWAYS); the divisor recursion is kept
as an oracle.  H_f(x) = sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x tracks
the constant term B_f of the logarithmic prime sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import ValueWithBudget, csum
from .errors import (
    InvalidArgumentError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from . import primes as pr

__all__ = [
    "CaseSpec",
    "CASES",
    "TABLE_CASES",
    "get_case",
    "zero_period",
    "zero_periods",
    "f_prime_power",
    "f_value",
    "f_sieve",
    "count_f",
    "lambda_f_prime_power",
    "lambda_f_closed_form",
    "h_f",
    "dirichlet_series_truncated",
    "M_NEVER",
    "M_ALWAYS",
    "COUNT_DESK_LIMIT",
]

# zero-period sentinels: NEVER means f(p^k) = 1 for all k,
# ALWAYS means f(p^k) = 0 for all k >= 1 (the k = 0 (mod 1) congruence).
M_NEVER = 0
M_ALWAYS = 1

COUNT_DESK_LIMIT = 10_000_000


@dataclass(frozen=True)
class CaseSpec:
    """One counting problem: density parameter and exponent rules by tag."""

    tag: str
    tau: Fraction      # Dirichlet density of primes with f(p) = 1
    delta: Fraction    # 1 - tau; the claimed logarithm exponent
    modulus: int | None  # the prime q, or None for two_squares/ones
    description: str

    def __str__(self):
        return self.tag


CASES: dict[str, CaseSpec] = {
    c.tag: c
    for c in [
        CaseSpec("q2", Fraction(0), Fraction(1), 2, "2 does not divide tau(n)"),
        CaseSpec("q3", Fraction(1, 2), Fraction(1, 2), 3, "3 does not divide tau(n)"),
        CaseSpec("q5", Fraction(3, 4), Fraction(1, 4), 5, "5 does not divide tau(n)"),
        CaseSpec("q7", Fraction(1, 2), Fraction(1, 2), 7, "7 does not divide tau(n)"),
        CaseSpec("q23", Fraction(1, 2), Fraction(1, 2), 23, "23 does not divide tau(n)"),
        CaseSpec("q691", Fraction(689, 690), Fraction(1, 690), 691, "691 does not divide tau(n)"),
        CaseSpec("two_squares", Fraction(1, 2), Fraction(1, 2), None, "n is a sum of two squares"),
        CaseSpec("ones", Fraction(1), Fraction(0), None, "constant function 1"),
    ]
}

# Table row order for the six-case summary.
TABLE_CASES = ["two_squares", "q5", "q7", "q3", "q691", "q23"]

_QR7_TABLE = np.array([1 if r in (1, 2, 4) else 0 for r in range(7)], dtype=np.int64)


def get_case(case) -> CaseSpec:
    if isinstance(case, CaseSpec):
        return case
    try:
        return CASES[case]
    except KeyError:
        raise UnsupportedCaseError(f"unknown case tag {case!r}") from None


def zero_period(case, p: int) -> int:
    """The exponent-congruence period m0 for the prime p (scalar path)."""
    spec = get_case(case)
    cl = pr.classify(spec.tag, p)
    tag = spec.tag
    if tag == "ones":
        return M_NEVER
    if tag == "q2":
        return M_ALWAYS if cl.label == "p=2" else 2
    if tag == "q3":
        return {"p=3": M_ALWAYS, "1 mod 3": 3, "2 mod 3": 2}[cl.label]
    if tag == "q5":
        return {"p=5": M_ALWAYS, "1 mod 5": 5, "±2 mod 5": 4, "4 mod 5": 2}[cl.label]
    if tag == "q7":
        return {"p=7": M_ALWAYS, "QR mod 7": 7, "QNR mod 7": 2}[cl.label]
    if tag == "q23":
        return {"P23": M_NEVER, "S1": 2, "S2": 3, "S3": 23}[cl.label]
    if tag == "q691":
        if cl.label == "p=691":
            return M_NEVER
        nu = int(cl.order)
        return 691 if nu == 1 else nu
    if tag == "two_squares":
        return 2 if cl.label == "3 mod 4" else M_NEVER
    raise UnsupportedCaseError(tag)


def zero_periods(case, limit: int) -> np.ndarray:
    """m0 for every prime <= limit, aligned with sieve_primes(limit)."""
    spec = get_case(case)
    p = pr.sieve_primes(limit).primes
    tag = spec.tag
    if tag == "ones":
        return np.full(len(p), M_NEVER, dtype=np.int64)
    if tag == "q2":
        out = np.full(len(p), 2, dtype=np.int64)
        out[p == 2] = M_ALWAYS
        return out
    if tag == "q3":
        out = np.where(p % 3 == 1, 3, 2)
        out[p == 3] = M_ALWAYS
        return out.astype(np.int64)
    if tag == "q5":
        r = p % 5
        out = np.full(len(p), 4, dtype=np.int64)
        out[r == 1] = 5
        out[r == 4] = 2
        out[p == 5] = M_ALWAYS
        return out
    if tag == "q7":
        out = np.where(_QR7_TABLE[p % 7] == 1, 7, 2)
        out[p == 7] = M_ALWAYS
        return out.astype(np.int64)
    if tag == "q23":
        codes = pr.wilton_codes(limit)
        lut = np.array([2, 3, 23, M_NEVER], dtype=np.int64)  # S1, S2, S3, P23
        return lut[codes]
    if tag == "q691":
        nu = pr.order_codes(limit).copy()
        out = np.where(nu == 1, 691, nu)
        out[nu == 0] = M_NEVER  # p = 691
        return out.astype(np.int64)
    if tag == "two_squares":
        out = np.where(p % 4 == 3, 2, M_NEVER)
        return out.astype(np.int64)
    raise UnsupportedCaseError(tag)


def f_prime_power(case, p: int, k: int) -> int:
    """f(p^k) in {0, 1}; f(p^0) = 1."""
    if k < 0:
        raise InvalidArgumentError(f"exponent must be >= 0, got {k}")
    if k == 0:
        return 1
    m0 = zero_period(case, p)
    if m0 == M_NEVER:
        return 1
    return 0 if k % m0 == m0 - 1 else 1


def f_value(case, n: int) -> int:
    """Multiplicative extension of the exponent rule; f(1) = 1."""
    n = int(n)
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    spec = get_case(case)
    if n == 1:
        return 1
    table = pr.sieve_primes(max(2, math.isqrt(n)))
    for p in table.primes:
        p = int(p)
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            if f_prime_power(spec, p, k) == 0:
                return 0
    if n > 1 and f_prime_power(spec, n, 1) == 0:
        return 0
    return 1


def f_sieve(case, x: int) -> np.ndarray:
    """Boolean array b with b[n] = f(n) for 0 <= n <= x (b[0] = False)."""
    x = int(x)
    if x < 1:
        raise InvalidArgumentError(f"x must be >= 1, got {x}")
    if x > COUNT_DESK_LIMIT:
        raise ResourceLimitError(f"counting desk limit is {COUNT_DESK_LIMIT}, got {x}")
    spec = get_case(case)
    out = np.ones(x + 1, dtype=bool)
    out[0] = False
    if x == 1:
        return out
    primes = pr.sieve_primes(x).primes
    m0s = zero_periods(spec, x)
    small = int(np.searchsorted(primes, math.isqrt(x), side="right"))
    for p, m0 in zip(primes[:small].tolist(), m0s[:small].tolist()):
        if m0 == M_NEVER:
            continue
        if m0 == M_ALWAYS:
            out[p::p] = False
            continue
        # zeros at exponents k = m0-1, 2*m0-1, ...: mark v_p(n) = k exactly
        pk = p ** (m0 - 1)
        if pk > x:
            continue
        step = p**m0
        while True:
            # n = pk*t with p not dividing t: in each full row of p*pk numbers,
            # every multiple of pk but the row's first; after the last full
            # row, every multiple of pk (the next t divisible by p is past x)
            blocks = x // (pk * p)
            out[: blocks * p * pk].reshape(blocks, p * pk)[:, pk::pk] = False
            out[pk * (blocks * p + 1) :: pk] = False
            if pk > x // step:
                break
            pk *= step
    # A prime p > sqrt(x) divides n <= x at most once, as n = j*p with j < p,
    # and f(n) = 0 exactly when f(p) = 0.  Mark those multiples per cofactor j.
    big = m0s[small:]
    zero = primes[small:][(big == 2) | (big == M_ALWAYS)]
    if len(zero):
        for j in range(1, x // int(zero[0]) + 1):
            out[j * zero[: np.searchsorted(zero, x // j, side="right")]] = False
    return out


def count_f(case, x: int) -> int:
    """Exact #{n <= x : f(n) = 1} by sieving the exponent rules."""
    return int(np.count_nonzero(f_sieve(case, x)))


def lambda_f_prime_power(case, p: int, k: int) -> float:
    """Lambda_f(p^k) by the prime-power recursion.

    Lambda_f(p^k) = k f(p^k) log p - sum_{j=1}^{k-1} f(p^j) Lambda_f(p^(k-j)).
    """
    if k < 1:
        raise InvalidArgumentError(f"exponent must be >= 1, got {k}")
    spec = get_case(case)
    logp = math.log(p)
    fvals = [f_prime_power(spec, p, j) for j in range(k + 1)]
    lam = [0.0] * (k + 1)
    for i in range(1, k + 1):
        lam[i] = i * fvals[i] * logp - math.fsum(
            fvals[j] * lam[i - j] for j in range(1, i)
        )
    return lam[k]


def lambda_f_closed_form(m0: int, k: int, logp: float) -> float:
    """Lambda_f(p^k) from the logarithmic derivative of the local factor."""
    if m0 == M_NEVER:
        return logp
    if m0 == M_ALWAYS:
        return 0.0
    a, b = m0 - 1, m0
    coeff = 1 + b * (k % b == 0) - a * (k % a == 0)
    return logp * coeff


def lambda_table(case, x: int) -> dict[int, float]:
    """Lambda_f on every prime power p^k <= x, keyed by p^k.

    Off prime powers Lambda_f vanishes (f is multiplicative with f(1) = 1).
    """
    spec = get_case(case)
    x = int(x)
    if x < 2:
        raise InvalidArgumentError(f"x must be >= 2, got {x}")
    if x > COUNT_DESK_LIMIT:
        raise ResourceLimitError(f"prime-power enumeration limit is {COUNT_DESK_LIMIT}, got {x}")
    table = pr.sieve_primes(x)
    m0s = zero_periods(spec, x)
    out: dict[int, float] = {}
    for p, m0 in zip(table.primes.tolist(), m0s.tolist()):
        logp = math.log(p)
        pk, k = p, 1
        while pk <= x:
            out[pk] = lambda_f_closed_form(m0, k, logp)
            pk *= p
            k += 1
    return out


def _int_kth_root(n: int, k: int) -> int:
    if k == 1:
        return n
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def h_f(case, x: float, depth_limit: int = COUNT_DESK_LIMIT) -> ValueWithBudget:
    """H_f(x) = sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x.

    Exact truncation (there is no tail): the budget covers summation
    rounding only.
    """
    spec = get_case(case)
    if x < 2:
        raise InvalidArgumentError(f"x must be >= 2, got {x}")
    xi = int(math.floor(x))
    if xi > depth_limit:
        raise ResourceLimitError(f"prime-power enumeration limit is {depth_limit}, got {xi}")
    table = pr.sieve_primes(xi)
    p = table.primes
    logs = table.logs
    m0s = zero_periods(spec, xi)

    terms = []
    # k = 1: Lambda_f(p) = f(p) log p, and f(p) = 0 iff m0 in {ALWAYS, 2}
    keep = (m0s != M_ALWAYS) & (m0s != 2)
    terms.append(logs[keep] / p[keep])
    # k >= 2
    kmax = int(math.floor(math.log2(xi))) if xi >= 4 else 1
    for k in range(2, kmax + 1):
        root = _int_kth_root(xi, k)
        if root < 2:
            break
        cnt = int(np.searchsorted(p, root, side="right"))
        sub_p = p[:cnt].astype(np.float64)
        sub_log = logs[:cnt]
        sub_m0 = m0s[:cnt]
        coeff = np.ones(cnt)
        finite = sub_m0 >= 2
        a = sub_m0[finite] - 1
        b = sub_m0[finite]
        coeff[finite] = 1.0 + b * (k % b == 0) - a * (k % a == 0)
        coeff[sub_m0 == M_ALWAYS] = 0.0
        terms.append(sub_log * coeff / sub_p**k)

    flat = np.concatenate(terms) if terms else np.zeros(0)
    tau_log = float(spec.tau) * math.log(x)
    value = csum(flat) - tau_log
    eps = np.finfo(float).eps
    budget = eps * (float(np.sum(np.abs(flat))) + abs(tau_log) + abs(value))
    return ValueWithBudget(value, budget)


def dirichlet_series_truncated(case, s: float, n_terms: int) -> float:
    """sum_{n <= N} f(n) n^(-s), compensated summation."""
    if s <= 1:
        raise PreconditionError(f"s must be > 1, got {s}")
    f = f_sieve(case, n_terms)
    n = np.flatnonzero(f).astype(np.float64)
    return csum(n ** (-s))
