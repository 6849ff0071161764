"""Scalar references for the per-prime rules, one integer at a time.

lrlab decides every per-prime rule for arrays of primes: the Wilton classes
mod 23 from the table of values U^2 + 23 V^2 or the split test of
x^3 - x - 1 (lrlab.primes), the order mod 691 from the discrete-log table
(lrlab.multfn), and f and Lambda_f through the zero period m0 of each
class (lrlab.multfn.f_sieve and h_f).  The functions here decide the same
things for a single integer, by other routes, for the tests to compare
against:

* is_prime: deterministic Miller-Rabin;
* kronecker_symbol: the binary algorithm with quadratic reciprocity;
* totient: phi(m) as the count of 1 <= r <= m with gcd(r, m) = 1;
* multiplicative_order: phi(m) divided by its prime factors while
  a^(order/q) = 1;
* character_values: the value table of chi_c^j mod m, from the powers of
  the generator g = GENERATORS[m] (lrlab keeps no value table: its
  L-values come from one inverse DFT over the discrete logs);
* wilton_class: S1 by (p|23) = -1, S3 by the search for p = U^2 + 23 V^2,
  as a code W_* of lrlab.primes; cubic_root_exists: the exhaustive scan for
  a root of x^3 - x - 1 mod p;
* zero_period, f_prime_power, f_value: f(p^k) = 0 iff k = -1 (mod m0),
  with m0 from wilton_class (q23), multiplicative_order (q691) or the
  case's residue table (every other case), and f multiplicative by trial
  division;
* lambda_f_prime_power: Lambda_f(p^k) by the prime-power recursion
  k f(p^k) log p = sum_{j=0}^{k-1} f(p^j) Lambda_f(p^(k-j)).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from lrlab.characters import GENERATORS
from lrlab.errors import InvalidArgumentError
from lrlab.multfn import M_NEVER, get_case
from lrlab.primes import W_P23, W_S1, W_S2, W_S3

# Miller-Rabin with this witness set is deterministic for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# q23's zero period of each Wilton class
_WILTON_PERIODS = {W_S1: 2, W_S2: 3, W_S3: 23, W_P23: M_NEVER}

# exp(2 pi i q/4) for the quarter turns q = 0..3
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid for n < 3.3e24)."""
    n = int(n)
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully multiplicative in both arguments."""
    a, n = int(a), int(n)
    if n == 0:
        raise InvalidArgumentError("kronecker_symbol undefined for n = 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        z = (n & -n).bit_length() - 1
        n >>= z
        if z % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def totient(m: int) -> int:
    """Euler's phi(m), counted: #{1 <= r <= m : gcd(r, m) = 1}."""
    return sum(math.gcd(r, m) == 1 for r in range(1, m + 1))


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/mZ)^*; requires gcd(a, m) = 1."""
    a, m = int(a) % int(m), int(m)
    if math.gcd(a, m) != 1:
        raise InvalidArgumentError(f"{a} is not invertible mod {m}")
    order = n = totient(m)
    q = 2
    while n > 1:  # q runs through the prime factors of phi(m)
        if n % q == 0:
            while n % q == 0:
                n //= q
            while order % q == 0 and pow(a, order // q, m) == 1:
                order //= q
        q += 1
    return order


@lru_cache(maxsize=None)
def _generator_powers(m: int) -> np.ndarray:
    """g^a mod m for a = 0..phi(m)-1, g = GENERATORS[m]."""
    powers = [1]
    for _ in range(totient(m) - 1):
        powers.append(powers[-1] * GENERATORS[m] % m)
    return np.array(powers)


def character_values(m: int, j: int) -> np.ndarray:
    """chi_c^j(r) for r = 0..m-1, zero off the unit group.

    chi_c^j(g^a) = exp(2 pi i turns/phi) with turns = j a mod phi, from
    cos and sin of the angle, and exact at the quarter turns.
    """
    powers = _generator_powers(m)
    phi = len(powers)
    turns = j * np.arange(phi) % phi
    angles = 2.0 * np.pi * turns / phi
    on_units = np.cos(angles) + 1j * np.sin(angles)
    quarter = 4 * turns % phi == 0
    on_units[quarter] = _QUARTER_TURNS[4 * turns[quarter] // phi]
    values = np.zeros(m, dtype=np.complex128)
    values[powers] = on_units
    return values


def wilton_class(p: int) -> int:
    """Wilton class code of the prime p, S3 decided by the U^2 + 23 V^2 search."""
    p = int(p)
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if p == 23:
        return W_P23
    if kronecker_symbol(p, 23) == -1:
        return W_S1
    v = 1
    while 23 * v * v < p:
        u2 = p - 23 * v * v
        r = math.isqrt(u2)
        if r * r == u2:
            return W_S3
        v += 1
    return W_S2


def cubic_root_exists(p: int, chunk: int = 1 << 16) -> bool:
    """Does x^3 = x + 1 (mod p) have a solution?  Exhaustive scan.

    int64-safe: (x*x % p) * x stays below 2^63 for p < 3e9.
    """
    p = int(p)
    for lo in range(0, p, chunk):
        x = np.arange(lo, min(lo + chunk, p), dtype=np.int64)
        if np.any((x * x % p * x - x - 1) % p == 0):
            return True
    return False


def zero_period(case, p: int) -> int:
    """The exponent-congruence period m0 of the prime p."""
    spec = get_case(case)
    p = int(p)
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if spec.tag == "q23":
        return _WILTON_PERIODS[wilton_class(p)]
    if spec.tag == "q691":
        if p == 691:
            return M_NEVER
        nu = multiplicative_order(p, 691)
        return 691 if nu == 1 else nu  # sigma_11(p^k) = k + 1 (mod 691) at nu = 1
    return spec.m0[spec.residues[p % len(spec.residues)]]


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
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k and f_prime_power(case, d, k) == 0:
            return 0
        d += 1
    return f_prime_power(case, n, 1) if n > 1 else 1


def lambda_f_prime_power(case, p: int, k: int) -> float:
    """Lambda_f(p^k) by the prime-power recursion.

    Lambda_f(p^k) = k f(p^k) log p - sum_{j=1}^{k-1} f(p^j) Lambda_f(p^(k-j)).
    """
    if k < 1:
        raise InvalidArgumentError(f"exponent must be >= 1, got {k}")
    logp = math.log(p)
    fvals = [f_prime_power(case, p, j) for j in range(k + 1)]
    lam = [0.0] * (k + 1)
    for i in range(1, k + 1):
        lam[i] = i * fvals[i] * logp - math.fsum(fvals[j] * lam[i - j] for j in range(1, i))
    return lam[k]
