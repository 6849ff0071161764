"""Multiplicative-function engine for the seven counting problems.

Each case is an indicator-valued multiplicative function f: f(n) = 1 when
the case's divisibility event fails at n (e.g. q does not divide tau(n)).
On prime powers every case reduces to a single congruence on the exponent:

    f(p^k) = 0  iff  k = -1 (mod m0),

where the period m0 depends only on the prime's class.  Each case's entry
in CASES holds the class of every residue mod a modulus (so each class is
a union of residue classes, by residue mod 3, 4, 5, 7 or by the order mod
691; for q23, whose Wilton classes S1, S2, S3 are the Frobenius classes of
the Hilbert class field of Q(sqrt(-23)), S2 and S3 split one residue
class), the m0 of every class, and the Euler factorization

    T(s)^n = zeta(s)^(n tau) zeta(2s)^z prod_chi L(s, chi)^e H(s)

of the case's Dirichlet series T(s) = sum f(n) n^-s, where H is a product
of local factors (1 - p^(-a s))^c over a few single primes and over the
primes of each class.  B_f and q5's first-order constant (constants), the
s = 2 identity checks (identities) and the sieves here are all read off
these entries.

Up to x, the sieves, the counts and H_f classify only the primes
p <= sqrt(x); a larger p divides n <= x at most once and needs only f(p),
which is 0 iff m0 is 2 or ALWAYS: a residue rule, as the classes that
split a residue class (q23's S2 and S3) both have f(p) = 1.

The generalized von Mangoldt function of f, defined by
f(n) log n = sum_{d|n} f(d) Lambda_f(n/d), is supported on prime powers and
has the closed form

    Lambda_f(p^k) = log p * (1 + m0*[m0 | k] - (m0-1)*[(m0-1) | k])

for finite m0 (log p for NEVER, 0 for ALWAYS).  H_f(x) =
sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x tracks the constant term B_f
of the logarithmic prime sum.  h_f splits it into S1(x), the sum of
log p/p over the primes p <= x with f(p) = 1, the terms p^k <= x with
k >= 2, and tau*log x.  Each case keeps S1 at every 256th prime of the
shared prime table as an unevaluated pair hi + lo: a sequential float sum
and the sum of the exact (TwoSum) rounding errors of its additions, with a
stored bound on lo's own rounding.  A call reads one pair, adds the k = 1
terms of the fewer than 256 primes left and the k >= 2 terms of the primes
<= sqrt(x), all from the closed form, in one exactly rounded sum, and adds
the stored bound to its budget.  The scalar references for one prime or
one n (m0, f by trial division, and Lambda_f by the prime-power recursion)
and the full-array reference for H_f live with the tests, in
tests/scalar_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .budget import ValueWithBudget, csum
from .characters import _dlog_table, euler_phi
from .errors import (
    ConsistencyError,
    InvalidArgumentError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from . import primes as pr

__all__ = [
    "CaseSpec",
    "EulerFactorization",
    "CASES",
    "TABLE_CASES",
    "get_case",
    "class_index",
    "f_sieve",
    "count_f",
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
class EulerFactorization:
    """T(s)^n = zeta(s)^(n tau) zeta(2s)^zeta2 prod L(s, chi^j)^e H(s).

    chi is the character mod ``modulus`` with chi(g) = exp(2 pi i/phi) at
    the generator g = characters.GENERATORS[modulus].  ``l_exponents`` is
    ((j, e), ...); a complex chi^j stands for itself and its conjugate
    chi^(phi - j), each to the power e.  A local factor ((c, a), ...) is
    prod (1 - p^(-a s))^c: ``finite`` pairs single primes q with theirs, and
    ``classes[j]`` is the one shared by the primes of class j.
    """

    n: int
    modulus: int
    l_exponents: tuple
    finite: tuple
    classes: tuple
    zeta2: int = 0

    def l_weights(self) -> tuple:
        """((j, w), ...): w = e for a real chi^j, 2e for a complex one and its conjugate."""
        phi = euler_phi(self.modulus)
        return tuple((j, e if 2 * j % phi == 0 else 2 * e) for j, e in self.l_exponents)


@dataclass(frozen=True)
class CaseSpec:
    """One counting problem: density, prime classes and Euler factorization.

    The class of a prime p is residues[p % len(residues)], so each class is
    a union of residue classes, unless ``frobenius`` is non-empty: it lists
    the classes j that are not (q23's S2 and S3, split by the Wilton test),
    each the Frobenius class j of lseries.frobenius_class_sum.  f(p) is a
    residue rule either way, as both classes of such a split have m0 > 2,
    so the sieves to x classify only the primes p <= sqrt(x).
    """

    tag: str
    tau: Fraction      # Dirichlet density of primes with f(p) = 1
    residues: tuple    # class index of each residue mod len(residues)
    m0: tuple          # zero period of each class
    euler: EulerFactorization | None = None    # T(s)^n as a product
    b_euler: EulerFactorization | None = None  # a rewrite preferred for B_f
    frobenius: tuple = ()

    def classify(self, primes) -> np.ndarray:
        """The uint8 class index of each prime in an array."""
        if self.frobenius:
            return pr.wilton_classes(primes)
        return self._residue_classes[primes % len(self.residues)]

    # The tables below are built once per spec, on first use.
    @cached_property
    def _residue_classes(self) -> np.ndarray:
        return np.array(self.residues, dtype=np.uint8)

    @cached_property
    def _m0s(self) -> np.ndarray:
        return np.array(self.m0, dtype=np.int64)

    @cached_property
    def _residue_f_zero(self) -> np.ndarray:
        """f(p) = 0, i.e. m0 in {2, ALWAYS}, for a prime p by its residue."""
        return np.isin(self._m0s, (2, M_ALWAYS))[self._residue_classes]

    @cached_property
    def _s1_blocks(self) -> "_S1Blocks":
        return _S1Blocks(self)

    @property
    def delta(self) -> Fraction:  # 1 - tau, the claimed logarithm exponent
        return 1 - self.tau

    def class_residues(self, j: int) -> list[int]:
        """The residues r mod len(residues) with residues[r] = j."""
        return [r for r, c in enumerate(self.residues) if c == j]

    def __str__(self):
        return self.tag


_DIVISORS_690 = tuple(d for d in range(1, 691) if 690 % d == 0)
# The class of r mod 691: the index of its order in _DIVISORS_690; the last class is p = 691.
# g^a has order 690/gcd(a, 690) for the generator g = characters.GENERATORS[691].
_ORDER_CLASSES = (len(_DIVISORS_690),) + tuple(
    _DIVISORS_690.index(690 // math.gcd(int(a), 690)) for a in _dlog_table(691)[1:]
)
# The classes mod 23: p = 23 (P23), (p|23) = -1 (S1), (p|23) = 1 (S2, less S3)
_WILTON_RESIDUES = tuple(3 if r == 0 else 0 if pr._KRON23[r] == -1 else 1 for r in range(23))


def _order_factor(nu: int) -> tuple:
    """The local factor of the T(s)^690 identity at the primes of order nu mod 691."""
    if nu == 1:
        return ((690, 690), (-690, 691))
    if nu == 2:
        return ((-345, 2),)
    even = ((690 // nu, nu), (-(1380 // nu), nu // 2)) if nu % 2 == 0 else ()
    return even + ((690, nu - 1), (-690, nu))


CASES: dict[str, CaseSpec] = {
    c.tag: c
    for c in [
        # 2 does not divide tau(n); classes: p = 2, odd p
        CaseSpec("q2", Fraction(0), residues=(0, 1), m0=(M_ALWAYS, 2)),
        # 3 does not divide tau(n); classes: p = 3, p = 2 (3), p = 1 (3)
        CaseSpec("q3", Fraction(1, 2),
                 residues=(0, 2, 1), m0=(M_ALWAYS, 2, 3),
                 euler=EulerFactorization(
                     # chi_-3 = chi^1 mod 3
                     n=2, modulus=3, l_exponents=((1, 1),), finite=((3, ((1, 1),)),),
                     classes=((), ((-1, 2),), ((-2, 3), (2, 2)))),
                 b_euler=EulerFactorization(
                     n=2, modulus=3, l_exponents=((1, 1),), finite=((3, ((1, 1), (-2, 2))),),
                     classes=((), ((-3, 2),), ((-2, 3),)), zeta2=-2)),
        # 5 does not divide tau(n); classes: p = 5, p = 1 (5), p = +-2 (5), p = 4 (5)
        CaseSpec("q5", Fraction(3, 4),
                 residues=(0, 1, 2, 2, 3), m0=(M_ALWAYS, 5, 4, 2),
                 euler=EulerFactorization(
                     # chi_c = chi^1 mod 5 (chi_c(2) = i, with its conjugate), chi_5 = chi^2
                     n=4, modulus=5, l_exponents=((1, 1), (2, -1)), finite=((5, ((3, 1),)),),
                     classes=((), ((4, 4), (-4, 5)), ((4, 3), (-2, 2), (-3, 4)), ((-2, 2),)))),
        # 7 does not divide tau(n); classes: p = 7, quadratic residues mod 7, non-residues
        CaseSpec("q7", Fraction(1, 2),
                 residues=(0, 1, 1, 2, 1, 2, 2), m0=(M_ALWAYS, 7, 2),
                 euler=EulerFactorization(
                     # chi_-7 = chi^3 mod 7
                     n=2, modulus=7, l_exponents=((3, 1),), finite=((7, ((1, 1),)),),
                     classes=((), ((2, 6), (-2, 7)), ((-1, 2),)))),
        # 23 does not divide tau(n); classes: the Wilton classes S1, S2, S3, P23
        # (primes module); S2 and S3 split the residues with (p|23) = 1
        CaseSpec("q23", Fraction(1, 2),
                 residues=_WILTON_RESIDUES, frobenius=(1, 2),
                 m0=(2, 3, 23, M_NEVER),
                 euler=EulerFactorization(
                     # chi_-23 = chi^11 mod 23
                     n=2, modulus=23, l_exponents=((11, 1),), finite=((23, ((-1, 1),)),),
                     classes=(((-1, 2),), ((2, 2), (-2, 3)), ((2, 22), (-2, 23)), ()))),
        # 691 does not divide tau(n); classes: by the order nu of p mod 691 (m0 = nu,
        # but 691 for nu = 1), then p = 691.  L(s, chi^j) mod 691 to the power +1 for
        # odd j and -1 for even j, j = 1..689: the pairs j, 690 - j are conjugate, and
        # j = 345 is the real quadratic character.  The local factors are the four
        # residual products that the paper's formula (constants.b691_approx) leaves out.
        CaseSpec("q691", Fraction(689, 690),
                 residues=_ORDER_CLASSES,
                 m0=tuple(691 if d == 1 else d for d in _DIVISORS_690) + (M_NEVER,),
                 euler=EulerFactorization(
                     n=690, modulus=691,
                     l_exponents=tuple((j, 1 if j % 2 else -1) for j in range(1, 346)),
                     finite=((691, ((-1, 1),)),),
                     classes=tuple(_order_factor(d) for d in _DIVISORS_690) + ((),))),
        # n is a sum of two squares; classes: p = 2 or p = 1 (4), p = 3 (4)
        CaseSpec("two_squares", Fraction(1, 2),
                 residues=(0, 0, 0, 1), m0=(M_NEVER, 2),
                 euler=EulerFactorization(
                     # chi_-4 = chi^1 mod 4
                     n=2, modulus=4, l_exponents=((1, 1),), finite=((2, ((-1, 1),)),),
                     classes=((), ((-1, 2),)))),
        # the constant function 1
        CaseSpec("ones", Fraction(1), residues=(0,), m0=(M_NEVER,)),
    ]
}

# Table row order for the six-case summary.
TABLE_CASES = ["two_squares", "q5", "q7", "q3", "q691", "q23"]


def get_case(case) -> CaseSpec:
    if isinstance(case, CaseSpec):
        return case
    try:
        return CASES[case]
    except KeyError:
        raise UnsupportedCaseError(f"unknown case tag {case!r}") from None


def class_index(case, limit: int) -> np.ndarray:
    """Class index of every prime <= limit, aligned with sieve_primes(limit)."""
    spec = get_case(case)
    return spec.classify(pr.sieve_primes(int(limit)).primes)


def _f_zero(spec: CaseSpec, primes: np.ndarray) -> np.ndarray:
    """f(p) = 0, i.e. m0 in {2, ALWAYS}, for each prime in an array, by residue."""
    zero = spec._residue_f_zero
    return zero[primes - primes // len(zero) * len(zero)]  # numpy's // by a scalar is 2x its %


def _sieve_small_primes(case, x: int) -> tuple[np.ndarray, np.ndarray]:
    """f_sieve's array before its big-prime pass, and the primes that pass needs.

    Returns (b, zero): b[n] is False for n = 0 and for every n <= x that a
    prime p <= sqrt(x) rules out (f(p^v_p(n)) = 0), True otherwise; zero
    lists the primes sqrt(x) < p <= x with f(p) = 0.  A float x is
    truncated to an integer; b has x + 1 entries.
    """
    if not (isinstance(x, int) or math.isfinite(x)):
        raise InvalidArgumentError(f"x must be finite, got {x}")
    x = int(x)
    if x < 1:
        raise InvalidArgumentError(f"x must be >= 1, got {x}")
    if x > COUNT_DESK_LIMIT:
        raise ResourceLimitError(f"counting desk limit is {COUNT_DESK_LIMIT}, got {x}")
    spec = get_case(case)
    out = np.ones(x + 1, dtype=bool)
    out[0] = False
    if x == 1:
        return out, np.zeros(0, dtype=np.int64)
    primes = pr.sieve_primes(x).primes
    small = int(np.searchsorted(primes, math.isqrt(x), side="right"))
    m0s = spec._m0s[spec.classify(primes[:small])]
    for p, m0 in zip(primes[:small].tolist(), m0s.tolist()):
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
    big = primes[small:]
    return out, big[_f_zero(spec, big)]


def f_sieve(case, x: int) -> np.ndarray:
    """Boolean array b with b[n] = f(n) for 0 <= n <= x (b[0] = False)."""
    out, zero = _sieve_small_primes(case, x)
    x = len(out) - 1
    # A prime p > sqrt(x) divides n <= x at most once, as n = j*p with j < p,
    # and f(n) = 0 exactly when f(p) = 0.  Mark those multiples per cofactor j.
    if len(zero):
        for j in range(1, x // int(zero[0]) + 1):
            out[j * zero[: np.searchsorted(zero, x // j, side="right")]] = False
    return out


def count_f(case, x: int) -> int:
    """Exact #{n <= x : f(n) = 1}, with f_sieve's rules but no big-prime pass.

    A prime p > sqrt(x) divides n <= x at most once, as n = m*p with
    m <= x/p < sqrt(x), and no n <= x has two such primes.  Let b mark the
    rules of the primes <= sqrt(x), the only primes classified, and
    F(y) = #{m <= y : b[m] = 1}.  Then, with f(p) read from the residues,

        count_f(x) = #{n <= x : b[n] = 1} - sum_{p > sqrt(x), f(p) = 0} F(x // p).

    The identity is exact.  b[n] = f(n) unless n = m*p for such a p, and
    then b[n] = b[m] = f(m), since every prime factor of m < sqrt(x) is
    small; f(n) = f(m) f(p).  So b overcounts exactly the n = m*p with
    f(m) = 1 and f(p) = 0, and the sum counts each once, by its one big
    prime.  F is a running count of b, needed only up to sqrt(x).
    """
    b, zero = _sieve_small_primes(case, x)
    x = len(b) - 1
    running = np.cumsum(b[: math.isqrt(x) + 1])
    return int(np.count_nonzero(b)) - int(running[x // zero].sum())


# The S1 prefix holds one entry every _S1_BLOCK primes, so a call adds at
# most _S1_BLOCK - 1 terms of k = 1 itself; it grows _S1_CHUNK primes a pass,
# which bounds its temporaries.
_S1_BLOCK = 256
_S1_CHUNK = 1 << 15
# One float addition rounds by at most 2^-53 times its result.  The factor
# covers the rounding of the running sum of |lo| that this multiplies, which
# can fall short of the exact sum by a factor (1 - 2^-53)^n for the n < 2^22
# primes below COUNT_DESK_LIMIT.
_LO_ROUNDING = 2.0**-53 * (1 + 2.0**-30)


class _S1Blocks:
    """S1 = sum of log p/p over the primes p with f(p) = 1, for one case, at
    every _S1_BLOCK-th prime of the shared prime table.

    Entry j covers the first j*_S1_BLOCK primes as the unevaluated pair
    hi[j] + lo[j]: hi is the sequential float sum of the terms (0 where
    f(p) = 0), lo the float sum of the exact rounding errors of hi's
    additions (TwoSum).  So hi + lo is S1 up to lo's own rounding, which
    bound(j) covers: each of lo's additions rounds by at most 2^-53 times
    its result.  Every entry is the same float whatever calls built it, so a
    budget depends on x only.  The entries reach only as far as the primes
    of the largest x asked for, and read only f(p), from the residues.  Each
    spec holds its own (CaseSpec._s1_blocks), so a copy of a spec starts empty.
    """

    def __init__(self, spec: CaseSpec):
        self.spec = spec
        self.hi = self.lo = self.abs_lo = np.zeros(1)

    def bound(self, j: int) -> float:
        """A bound on |hi[j] + lo[j] - the exact sum of entry j's float terms|."""
        return float(self.abs_lo[j]) * _LO_ROUNDING

    def extend(self, table: pr.PrimeTable) -> None:
        """Add the entries of every full block of the table's primes."""
        stop = len(table) // _S1_BLOCK * _S1_BLOCK
        for start in range((len(self.hi) - 1) * _S1_BLOCK, stop, _S1_CHUNK):
            end = min(start + _S1_CHUNK, stop)
            p = table.primes[start:end]
            t = table.logs[start:end] / p
            t[_f_zero(self.spec, p)] = 0.0
            run = np.cumsum(np.concatenate((self.hi[-1:], t)))
            prev, hi = run[:-1], run[1:]
            if not np.array_equal(prev + t, hi):
                raise ConsistencyError("np.cumsum did not add the S1 terms one at a time")
            back = hi - prev
            err = (prev - (hi - back)) + (t - back)  # prev + t = hi + err, exactly
            lo = np.cumsum(np.concatenate((self.lo[-1:], err)))[1:]
            abs_lo = np.cumsum(np.concatenate((self.abs_lo[-1:], np.abs(lo))))[1:]
            ends = slice(_S1_BLOCK - 1, None, _S1_BLOCK)
            self.hi = np.concatenate((self.hi, hi[ends]))
            self.lo = np.concatenate((self.lo, lo[ends]))
            self.abs_lo = np.concatenate((self.abs_lo, abs_lo[ends]))


def _prime_power_terms(spec: CaseSpec, table: pr.PrimeTable, x: int) -> np.ndarray:
    """Lambda_f(p^k)/p^k for every p^k <= x with k >= 2, by k and then by p."""
    r = int(np.searchsorted(table.primes, math.isqrt(x), side="right"))
    if not r:
        return np.zeros(0)
    p, logs = table.primes[:r], table.logs[:r]
    m0 = spec._m0s[spec.classify(p)]
    # the largest k with p^k <= x: a float estimate, off by at most one, made exact
    kmax = (math.log(x) / logs).astype(np.int64)
    kmax -= p**kmax > x
    kmax += p ** (kmax + 1) <= x
    # the primes with kmax >= k are a prefix of p, as kmax falls with p
    ks = np.arange(2, int(kmax[0]) + 1)
    counts = np.searchsorted(-kmax, -ks, side="right")
    k = np.repeat(ks, counts)
    i = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    m = m0[i]
    b = np.maximum(m, 2)  # the closed form holds for finite m0; NEVER has 1, ALWAYS 0
    coeff = np.where(m >= 2, 1 + b * (k % b == 0) - (b - 1) * (k % (b - 1) == 0), m == M_NEVER)
    return logs[i] * coeff / p[i] ** k


def h_f(case, x: float) -> ValueWithBudget:
    """H_f(x) = sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x.

    Exact truncation (there is no tail).  The k = 1 terms of the first
    j*_S1_BLOCK primes come from the case's S1 prefix (_S1Blocks) as one pair
    hi + lo; math.fsum adds it to the k = 1 terms of the fewer than
    _S1_BLOCK primes left and to the k >= 2 terms of the primes <= sqrt(x),
    all read off the closed form, and tau*log x is subtracted.  The budget
    covers rounding only: eps*(sum of |terms| + |tau log x| + |value|), plus
    the prefix's bound on the rounding of lo.
    """
    spec = get_case(case)
    if not (isinstance(x, int) or math.isfinite(x)):  # an int is finite, even past the float range
        raise InvalidArgumentError(f"x must be finite, got {x}")
    if x < 2:
        raise InvalidArgumentError(f"x must be >= 2, got {x}")
    xi = int(math.floor(x))
    if xi > COUNT_DESK_LIMIT:
        shown = f"{x:.10g}" if x < 1e308 else "more than 1e308"
        raise ResourceLimitError(f"prime-power enumeration limit is {COUNT_DESK_LIMIT}, got {shown}")
    table = pr.sieve_primes(xi)
    blocks = spec._s1_blocks
    j = len(table) // _S1_BLOCK
    if j >= len(blocks.hi):
        blocks.extend(table)
    hi, lo = float(blocks.hi[j]), float(blocks.lo[j])
    p, logs = table.primes[j * _S1_BLOCK :], table.logs[j * _S1_BLOCK :]
    keep = ~_f_zero(spec, p)
    rest = np.concatenate((logs[keep] / p[keep], _prime_power_terms(spec, table, xi)))

    tau_log = float(spec.tau) * math.log(x)
    value = math.fsum([hi, lo, *rest.tolist()]) - tau_log
    eps = np.finfo(float).eps
    abs_sum = hi + abs(lo) + float(np.sum(np.abs(rest)))
    budget = eps * (abs_sum + abs(tau_log) + abs(value)) + blocks.bound(j)
    return ValueWithBudget(value, budget)


def dirichlet_series_truncated(case, s: float, n_terms: int) -> float:
    """sum_{n <= N} f(n) n^(-s), compensated summation."""
    if not s > 1:
        raise PreconditionError(f"s must be > 1, got {s}")
    f = f_sieve(case, n_terms)
    n = np.flatnonzero(f).astype(np.float64)
    return csum(n ** (-s))
