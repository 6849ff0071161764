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
sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x, which h_f evaluates from
this closed form for all primes at once, tracks the constant term B_f of
the logarithmic prime sum.  The scalar references for one prime or one n
(m0, f by trial division, and Lambda_f by the prime-power recursion) live
with the tests, in tests/scalar_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import ValueWithBudget, csum
from .characters import _dlog_table, euler_phi
from .errors import (
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
    "zero_periods",
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
        return np.array(self.residues, dtype=np.uint8)[primes % len(self.residues)]

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


def zero_periods(case, limit: int) -> np.ndarray:
    """m0 for every prime <= limit, aligned with sieve_primes(limit)."""
    spec = get_case(case)
    return np.array(spec.m0, dtype=np.int64)[class_index(spec, limit)]


def _f_zero(spec: CaseSpec, primes: np.ndarray) -> np.ndarray:
    """f(p) = 0, i.e. m0 in {2, ALWAYS}, for each prime in an array, by residue."""
    m0 = np.array(spec.m0)
    zero = ((m0 == 2) | (m0 == M_ALWAYS))[np.array(spec.residues)]
    return zero[primes - primes // len(zero) * len(zero)]  # numpy's // by a scalar is 2x its %


def _sieve_small_primes(case, x: int) -> tuple[np.ndarray, np.ndarray]:
    """f_sieve's array before its big-prime pass, and the primes that pass needs.

    Returns (b, zero): b[n] is False for n = 0 and for every n <= x that a
    prime p <= sqrt(x) rules out (f(p^v_p(n)) = 0), True otherwise; zero
    lists the primes sqrt(x) < p <= x with f(p) = 0.
    """
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
    m0s = np.array(spec.m0)[spec.classify(primes[:small])]
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
    x = int(x)
    out, zero = _sieve_small_primes(case, x)
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
    x = int(x)
    b, zero = _sieve_small_primes(case, x)
    running = np.cumsum(b[: math.isqrt(x) + 1])
    return int(np.count_nonzero(b)) - int(running[x // zero].sum())


def _int_kth_root(n: int, k: int) -> int:
    if k == 1:
        return n
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def h_f(case, x: float) -> ValueWithBudget:
    """H_f(x) = sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x.

    Exact truncation (there is no tail): the budget covers summation
    rounding only.
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
    p = table.primes
    logs = table.logs

    terms = []
    # k = 1: Lambda_f(p) = f(p) log p
    keep = ~_f_zero(spec, p)
    terms.append(logs[keep] / p[keep])
    # k >= 2, so p <= sqrt(x)
    m0s = np.array(spec.m0)[spec.classify(p[: int(np.searchsorted(p, math.isqrt(xi), side="right"))])]
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
