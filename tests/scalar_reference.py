"""Scalar references for the per-prime rules, one integer at a time.

lrlab decides every per-prime rule for arrays of primes: the Wilton classes
mod 23 from the table of values U^2 + 23 V^2 (lrlab.primes), the order
mod 691 from the discrete-log table (lrlab.multfn), and f and Lambda_f
through the zero period m0 of each class (lrlab.multfn.f_sieve and h_f).
The functions here decide the same things for a single integer, or by
other routes, for the tests to compare against:

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
* cubic_splits, wilton_codes_cubic: the split test of x^3 - x - 1 for an
  array of primes, and the Wilton classes with S3 decided by it;
* tau_mod23_hecke: tau(n) mod 23 from Wilton's values tau(p) = 0, -1, 2
  on the classes of lrlab.primes.wilton_classes, extended by the Hecke
  recursion, so that its agreement with lrlab.modforms.tau_mod(23, n), the
  coefficients of x E(x) E(x^23), ties the classes to tau;
* decimal_square_trunc: the truncated square of an integer polynomial by
  Kronecker substitution in base 10 and one exact Decimal multiply, the
  reference for lrlab.modforms._fft_square_trunc;
* h_f_reference: H_f(x) with every term of every prime <= x rebuilt on
  each call, one array per exponent k found by integer k-th roots, and one
  exactly rounded sum, the reference for lrlab.multfn.h_f's block prefix;
* zero_period, f_prime_power, f_value: f(p^k) = 0 iff k = -1 (mod m0),
  with m0 from wilton_class (q23), multiplicative_order (q691) or the
  case's residue table (every other case), and f multiplicative by trial
  division;
* lambda_f_prime_power: Lambda_f(p^k) by the prime-power recursion
  k f(p^k) log p = sum_{j=0}^{k-1} f(p^j) Lambda_f(p^(k-j)).
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache

import numpy as np

from lrlab.budget import ValueWithBudget
from lrlab.characters import GENERATORS
from lrlab.errors import InvalidArgumentError
from lrlab.multfn import M_ALWAYS, M_NEVER, get_case
from lrlab.primes import W_P23, W_S1, W_S2, W_S3, sieve_primes, wilton_classes

# Miller-Rabin with this witness set is deterministic for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# q23's zero period of each Wilton class
_WILTON_PERIODS = {W_S1: 2, W_S2: 3, W_S3: 23, W_P23: M_NEVER}

# exp(2 pi i q/4) for the quarter turns q = 0..3
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])

# Exact integer arithmetic on Decimal: any rounding raises instead of passing.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


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


@lru_cache(maxsize=None)
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


# x^p is reduced mod p after each product of two residues below p, so every
# intermediate stays below p^2 < 2^63.
_SPLIT_P_LIMIT = 3 * 10**9


def cubic_splits(primes) -> np.ndarray:
    """x^p = x mod (x^3 - x - 1, p) for each prime p: does the cubic split mod p?

    For p != 23, f = x^3 - x - 1 is squarefree mod p and Frobenius permutes
    its three roots; the permutation is even iff the discriminant -23 is a
    square mod p, and (-23|p) = (p|23) by quadratic reciprocity.  So when
    (p|23) = 1, f has either no root or three roots mod p, and three roots
    means f divides x^p - x.  x^p is evaluated by left-to-right
    square-and-multiply on residues a + b x + c x^2 (int64), using
    x^3 = x + 1 and x^4 = x^2 + x, over all primes at once.  p = 2 is
    decided correctly too: f = x^3 + x + 1 is irreducible mod 2 and x^2 != x.
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


def wilton_codes_cubic(limit: int) -> np.ndarray:
    """Wilton class code of each prime <= limit (order matches sieve_primes),
    with S3 decided by cubic_splits among the primes with (p|23) = 1."""
    p = sieve_primes(limit)
    residue = np.isin(p % 23, [r * r % 23 for r in range(1, 23)])
    codes = np.where(residue, W_S2, W_S1).astype(np.uint8)
    codes[residue & cubic_splits(p)] = W_S3
    codes[p == 23] = W_P23
    return codes


def tau_mod23_hecke(n_max: int) -> np.ndarray:
    """tau(n) mod 23 for n = 0..n_max (a[0] = 0) from Wilton's prime values.

    tau(p) for all primes from their Wilton classes, tau(p^k) by the Hecke
    recursion tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)) on the
    multiples of each p <= sqrt(n_max) (one strided multiply per prime), and
    each larger prime, which divides n at most once, by one scatter per
    cofactor j = n/p.
    """
    out = np.ones(n_max + 1, dtype=np.int64)
    out[0] = 0
    primes = sieve_primes(max(2, n_max))
    primes = primes[: np.searchsorted(primes, n_max, side="right")]
    tp = np.array([0, 22, 2, 1])[wilton_classes(primes)]  # tau(p) in classes S1, S2, S3, P23
    root = math.isqrt(n_max)
    small = int(np.searchsorted(primes, root, side="right"))
    for p, t1 in zip(primes[:small].tolist(), tp[:small].tolist()):
        tpk = [1, t1]  # tau(p^k) mod 23, with p^11 = (p|23) mod 23
        while p ** len(tpk) <= n_max:
            tpk.append((t1 * tpk[-1] - pow(p, 11, 23) * tpk[-2]) % 23)
        expo = np.zeros(n_max // p, dtype=np.int64)  # v_p(j*p) - 1 for j*p <= n_max
        for k in range(1, len(tpk) - 1):
            expo[p**k - 1 :: p**k] += 1
        out[p::p] = out[p::p] * np.array(tpk[1:])[expo] % 23
    big, tbig = primes[small:], tp[small:]
    for j in range(1, n_max // (root + 1) + 1):
        top = np.searchsorted(big, n_max // j, side="right")
        out[j * big[:top]] = out[j * big[:top]] * tbig[:top] % 23
    return out


def decimal_square_trunc(coeffs: list[int], length: int) -> list[int]:
    """Truncated square of an integer polynomial via decimal Kronecker substitution.

    Every coefficient c becomes a w-digit decimal field holding
    c + 5*10^(w-1); the packed string is read as one Decimal, squared, and
    the fields of the square are sliced back out.  The field width w
    satisfies len * max|c|^2 < 10^(w-1), the crude convolution bound, so the
    offset fields provably never carry into their neighbours.  libmpdec
    multiplies large operands by number-theoretic transform, and the
    context traps Inexact and Rounded, so any loss of digits raises.
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


def _int_kth_root(n: int, k: int) -> int:
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def h_f_reference(case, x: float) -> ValueWithBudget:
    """H_f(x) from the closed form of Lambda_f over all primes <= x at once,
    with the budget eps*(sum of |terms| + |tau log x| + |value|)."""
    spec = get_case(case)
    xi = int(math.floor(x))
    p = sieve_primes(xi)
    logs = np.log(p.astype(np.float64))  # its own, not the library's kept logs

    m0_all = np.array(spec.m0)
    zero = ((m0_all == 2) | (m0_all == M_ALWAYS))[np.array(spec.residues)]
    keep = ~zero[p % len(zero)]
    terms = [logs[keep] / p[keep]]  # k = 1: Lambda_f(p) = f(p) log p
    m0s = m0_all[spec.classify(p[: int(np.searchsorted(p, math.isqrt(xi), side="right"))])]
    kmax = int(math.floor(math.log2(xi))) if xi >= 4 else 1
    for k in range(2, kmax + 1):
        root = _int_kth_root(xi, k)
        if root < 2:
            break
        cnt = int(np.searchsorted(p, root, side="right"))
        sub_p = p[:cnt].astype(np.float64)
        sub_m0 = m0s[:cnt]
        coeff = np.ones(cnt)
        finite = sub_m0 >= 2
        a = sub_m0[finite] - 1
        b = sub_m0[finite]
        coeff[finite] = 1.0 + b * (k % b == 0) - a * (k % a == 0)
        coeff[sub_m0 == M_ALWAYS] = 0.0
        terms.append(logs[:cnt] * coeff / sub_p**k)

    flat = np.concatenate(terms)
    tau_log = float(spec.tau) * math.log(x)
    value = math.fsum(flat) - tau_log
    eps = np.finfo(float).eps
    budget = eps * (float(np.sum(np.abs(flat))) + abs(tau_log) + abs(value))
    return ValueWithBudget(value, budget)


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
