"""Multiplicative-function engine for the seven counting problems.

Each case is an indicator-valued multiplicative function f: f(n) = 1 when
the case's divisibility event fails at n (e.g. q does not divide tau(n)).
On prime powers every case reduces to a single congruence on the exponent:

    f(p^k) = 0  iff  k = -1 (mod m0),

where the period m0 depends only on the prime's class.  A case's entry in
CASES is its definition: the class of every residue mod a modulus m (each
class a union of residue classes; for q23, whose Wilton classes S1, S2, S3
are the Frobenius classes of the Hilbert class field of Q(sqrt(-23)), S2
and S3 split one residue class) and the m0 of every class; a prime p | m
is a class of its own.  The cases "q does not divide tau(n)", q = 2, 3,
5, 7 and 691, are derived from tau(n) = n^v sigma_w(n) (mod q), the table
tau_mod reads (_tau_case; mod 691 a class is the residues of one order);
q23 and two_squares are written by hand.  CaseSpec derives from a
definition, on first use, the density tau (the mean of F(r) = f(p),
p = r mod m, over the units) and the one Euler factorization of
T(s) = sum f(n) n^-s,

    T(s)^n = zeta(s)^(n tau) prod_chi L(s, chi)^e H(s):

e_j = n F^(j), from the Fourier transform of F over the discrete logs,
with n the least that makes every e_j an integer, and H a product of
local factors (1 - p^(-a s))^c over the primes of each class, where

    sum_{a | k} a c_a = -d_k,  d_k = n Lambda_f(p^k)/log p - n F(r^k)

(n tau in place of n F(r^k) when p | m; Lambda_f below) equates the
coefficients of p^-ks in the logs of the two sides' factors at p.  d_k
depends only on gcd(k, L), L the lcm of m0, m0 - 1 and the orders of the
class's residues, so the divisors k of L give every c_a.  Each prime
residue of a class must give the same d_k and each c_a must be an
integer (ConsistencyError otherwise).  B_f and q5's first-order constant
(constants), the identity checks (identities) and the sieves here are
all read off these.

Up to x, the sieves, the counts and H_f classify only the primes
p <= sqrt(x); a larger p divides n <= x at most once and needs only f(p),
which is 0 iff m0 is 2 or ALWAYS: a residue rule, as the classes that
split a residue class (q23's S2 and S3) both have f(p) = 1.

The small primes' rules are a flat list of (p, p^e, skip): the n <= x
with v_p(n) = e exactly (skip) or with p | n (ALWAYS) have f(n) = 0.  One
marker, _mark, applies them to any window of the progression
n = lo + step*i, step 1 or 2, each rule by a strided view, in the spirit
of the segmented sieve of Bays and Hudson (BIT 17, 1977).  f_sieve runs
it once, with step 1, over its full output array.  count_f to x <=
primes.SEGMENT_SIZE counts a prefix of the case's table of f: f_sieve's
array for the largest such x asked for, kept per case and rebuilt for a
larger x, so a case holds at most one window (about 1 MB), and a cold
call pays one f_sieve build, 3-4 times the cost of counting by windows.
Above that, count_f marks the odd n only, with step 2 and the odd
primes' rules, the first step of wheel sieving (Pritchard, Acta
Informatica 17, 1982), on one reused window of primes.SEGMENT_SIZE
entries, and never holds more, so its working memory is one window at
any x.  It adds the even n back by their power of 2: the marks are
multiplicative, so n = 2^a m with m odd is marked iff 2^a and m are, and
the count to x is the sum, over the a whose 2^a is marked, of the marked
odd m <= x >> a.

The generalized von Mangoldt function of f, defined by
f(n) log n = sum_{d|n} f(d) Lambda_f(n/d), is supported on prime powers and
has the closed form

    Lambda_f(p^k) = log p * (1 + m0*[m0 | k] - (m0-1)*[(m0-1) | k])

for finite m0 (log p for NEVER, 0 for ALWAYS).  H_f(x) =
sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x tracks the constant term B_f
of the logarithmic prime sum.  h_f splits it into S1(x), the sum of
log p/p over the primes p <= x with f(p) = 1, the terms p^k <= x with
k >= 2, and tau*log x.  Each case keeps two prefixes of unevaluated pairs
hi + lo, a sequential float sum and the sum of the exact (TwoSum)
rounding errors of its additions (Ogita, Rump and Oishi, SIAM J. Sci.
Comput. 26, 2005), each with a stored bound on lo's own rounding: S1 at
every _S1_BLOCK-th (16th) prime of the shared prime table, and the k >= 2
terms, from the closed form, sorted by p^k, with the running sum of their
|terms|.  Both reach the largest x asked for and grow when a larger x
comes.  A call finds pi(x) in the shared prime table, reads one pair of
each prefix, adds the k = 1 terms of the fewer than 16 primes left, each
kept or dropped by its residue in plain Python, in one exactly rounded
sum (math.fsum), and adds both stored bounds to its budget.  Such a warm
call takes about 6.7 us (mean over perfbench's 906 H_f grid points, on a
2-vCPU Xeon with Python 3.11 and numpy 2.4).  The scalar references for
one prime or one n (m0, f by trial division, and Lambda_f by the
prime-power recursion) and the full-array reference for H_f live with the
tests, in tests/scalar_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _args
from .budget import ValueWithBudget
from .characters import GENERATORS, _dlog_table, euler_phi
from .errors import ConsistencyError, InvalidArgumentError, PreconditionError, UnsupportedCaseError
from .modforms import _TAU_CONGRUENCES
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
    """T(s)^n = zeta(s)^(n tau) prod L(s, chi^j)^e H(s).

    chi is the character mod ``modulus`` with chi(g) = exp(2 pi i/phi) at
    the generator g = characters.GENERATORS[modulus].  ``l_exponents`` is
    ((j, e), ...); a complex chi^j stands for itself and its conjugate
    chi^(phi - j), each to the power e.  ``classes[j]`` is the local factor
    ((c, a), ...), prod (1 - p^(-a s))^c, shared by the primes of class j.
    """

    n: int
    modulus: int
    l_exponents: tuple
    classes: tuple

    def l_weights(self) -> tuple:
        """((j, w), ...): w = e for a real chi^j, 2e for a complex one and its conjugate."""
        phi = euler_phi(self.modulus)
        return tuple((j, e if 2 * j % phi == 0 else 2 * e) for j, e in self.l_exponents)


@dataclass(frozen=True)
class CaseSpec:
    """One counting problem: its prime classes and their zero periods.

    The tau cases' fields come from their congruence (_tau_case).  The
    class of a prime p is residues[p % len(residues)], so each class is
    a union of residue classes, unless ``frobenius`` is non-empty: it lists
    the classes j that are not (q23's S2 and S3, split by the Wilton test),
    each the Frobenius class j of lseries.frobenius_class_sum.  f(p) is a
    residue rule either way, as both classes of such a split have m0 > 2,
    so the sieves to x classify only the primes p <= sqrt(x).

    A spec checks its fields when it is made: tuples of ints, each m0 at
    most 2^16, and ``frobenius`` () or (1, 2) on q23's layout.  tau (the
    mean of f(p) over the unit residues) and euler are derived from these
    fields on first use (module docstring): each class's local factor
    solves sum_{a | k} a c_a = -d_k, d_k = n Lambda_f(p^k)/log p -
    n F(r^k) (n tau when p | m), over the divisors k of L.
    """

    tag: str
    residues: tuple    # class index of each residue mod len(residues)
    m0: tuple          # zero period of each class
    frobenius: tuple = ()

    def __post_init__(self):  # the sieves and sums trust the fields, so a hand-made spec is checked here
        _args.instance(self.tag, str, "tag")
        m0 = _args.int_array(_args.instance(self.m0, tuple, "m0"), "m0").tolist()
        residues = _args.int_array(_args.instance(self.residues, tuple, "residues"), "residues").tolist()
        _args.integer(min(len(m0), len(residues)), "the number of classes and of residues", 1)
        _args.integer(min(m0), "a zero period", M_NEVER)
        _args.integer(max(m0), "a zero period", None, 2**16)  # euler's divisor search grows with m0
        _args.integer(min(residues), "a class index", 0)
        _args.integer(max(residues), "a class index", None, min(len(m0), 256) - 1)  # a uint8
        if _args.instance(self.frobenius, tuple, "frobenius") and (  # q23's S2 and S3, which share f(p)
                _args.int_array(self.frobenius, "frobenius").tolist() != [1, 2] or len(m0) != 4
                or self.residues != _WILTON_RESIDUES or len({m in (2, M_ALWAYS) for m in m0[1:3]}) != 1):
            raise InvalidArgumentError(f"frobenius {_args.shown(self.frobenius)} needs q23's layout")

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
    def _tables(self) -> "_Tables":
        return _Tables(self)

    @cached_property
    def tau(self) -> Fraction:
        """The Dirichlet density of the primes with f(p) = 1: the mean of f(p) over the unit residues."""
        m = len(self.residues)
        units = np.gcd(np.arange(m), m) == 1
        return Fraction(int(np.count_nonzero(~self._residue_f_zero[units])), int(np.count_nonzero(units)))

    @cached_property
    def euler(self) -> EulerFactorization:
        """T(s)^n as a product, derived from the residues and m0 (module docstring)."""
        m = len(self.residues)
        if m not in GENERATORS:
            raise UnsupportedCaseError(f"no product identity registered for {self.tag!r}")
        dlog, phi = _dlog_table(m), euler_phi(m)
        unit = dlog >= 0
        f_one = np.zeros(phi, dtype=np.int64)  # F(g^a) at index a
        f_one[dlog[unit]] = ~self._residue_f_zero[unit]
        spectrum = np.fft.rfft(f_one)  # phi F^(j), j = 0..phi/2
        e = np.rint(spectrum.real).astype(np.int64)
        if np.max(np.abs(spectrum - e)) > 1e-9:
            raise ConsistencyError(f"{self.tag}: f(p) is no integer combination of real characters")
        n = phi // math.gcd(phi, *e.tolist())
        e = e * n // phi  # e[0] = n tau, e[j] the exponent of L(s, chi^j)
        ramified = [p % m for p in pr.sieve_primes(m).primes.tolist() if m % p == 0]
        labels, classes = self._residue_classes, []
        for c, m0 in enumerate(self.m0):
            in_class = np.isin(labels, self.frobenius) if c in self.frobenius else labels == c
            logs = dlog[in_class & unit]
            orders = set((phi // np.gcd(logs, phi)).tolist())  # d_k depends on gcd(k, period) only
            period = math.lcm(*orders, *((m0, m0 - 1) if m0 >= 2 else ()))
            small = [k for k in range(1, math.isqrt(period) + 1) if period % k == 0]
            ks = np.array(sorted({*small, *(period // k for k in small)}))  # the divisors of period
            # n F(r^k) for each prime residue r of the class (rows) and k (columns)
            rows = np.vstack((n * f_one[np.outer(logs, ks) % phi],
                              np.full((np.count_nonzero(in_class[ramified]), len(ks)), e[0])))
            if not len(rows) or (rows != rows[0]).any():
                raise ConsistencyError(f"{self.tag}: class {c} has no prime residue, or two local factors")
            ac = {}  # a c_a, by ascending a
            for k, d in zip(ks.tolist(), (n * _lambda_over_log(m0, ks) - rows[0]).tolist()):
                ac[k] = -d - sum(v for a, v in ac.items() if k % a == 0)
                if ac[k] % k:
                    raise ConsistencyError(f"{self.tag}: class {c} has a non-integral local factor at a = {k}")
            classes.append(tuple((v // a, a) for a, v in ac.items() if v))
        l_exponents = tuple((j, int(e[j])) for j in range(1, phi // 2 + 1) if e[j])
        return EulerFactorization(n, m, l_exponents, tuple(classes))

    @property
    def delta(self) -> Fraction:  # 1 - tau, the claimed logarithm exponent
        return 1 - self.tau

    def class_residues(self, j: int) -> list[int]:
        """The residues r mod len(residues) with residues[r] = j."""
        return [r for r, c in enumerate(self.residues) if c == j]

    def __str__(self):
        return self.tag


def _lambda_over_log(m0, k):
    """Lambda_f(p^k)/log p for zero periods m0 and exponents k (arrays or ints)."""
    b = np.maximum(m0, 2)  # the closed form holds for finite m0; NEVER has 1, ALWAYS 0
    return np.where(m0 >= 2, 1 + b * (k % b == 0) - (b - 1) * (k % (b - 1) == 0), m0 == M_NEVER)


def _tau_case(q: int) -> CaseSpec:
    """The case "q does not divide tau(n)", from tau(n) = n^v sigma_w(n) (mod q).

    (v, w) is modforms._TAU_CONGRUENCES[q]; all congruences here are mod q.
    At p = q, tau(q^k) = 0 for every k >= 1 if v >= 1 (ALWAYS), and
    tau(q^k) = 1 if v = 0 (NEVER).  At p = r, r != 0, let u = r^w:
    tau(p^k) = 0 iff 1 + u + ... + u^k = 0, so m0 is q if u = 1 and the
    order of u otherwise, phi/gcd(w a, phi) for r = g^a
    (characters._dlog_table).  The residues with one m0 form a class;
    p = q's class comes first if ALWAYS and last if NEVER, and the unit
    classes come by the least multiplicative order of their residues.
    """
    v, w = _TAU_CONGRUENCES[q]
    # r = g^a, a = dlog[r], for r = 1..q-1; mod 2 the one unit is 1 = g^0, and phi = 1
    dlog = _dlog_table(q).tolist() if q in GENERATORS else [-1, 0]
    phi = max(dlog) + 1
    units = sorted(range(1, q), key=lambda r: phi // math.gcd(dlog[r], phi))  # by their order
    unit_m0 = {r: phi // math.gcd(w * dlog[r], phi) for r in units}  # the order of u = r^w
    unit_m0 = {r: q if m == 1 else m for r, m in unit_m0.items()}
    m0 = tuple(dict.fromkeys(unit_m0.values()))  # each class once, at its least order
    m0 = (M_ALWAYS, *m0) if v else (*m0, M_NEVER)
    residues = (m0.index(M_ALWAYS if v else M_NEVER), *(m0.index(unit_m0[r]) for r in range(1, q)))
    return CaseSpec(f"q{q}", residues, m0)


# The classes mod 23: p = 23 (P23), (p|23) = -1 (S1), (p|23) = 1 (S2, less S3)
_WILTON_RESIDUES = tuple(3 if r == 0 else 0 if pr._KRON23[r] == -1 else 1 for r in range(23))

CASES: dict[str, CaseSpec] = {
    c.tag: c
    for c in [
        # q does not divide tau(n), for q = 2, 3, 5, 7 (p = q, then r mod q by m0)
        *map(_tau_case, (2, 3, 5, 7)),
        # 23 does not divide tau(n); classes: the Wilton classes S1, S2, S3, P23
        # (primes module); S2 and S3 split the residues with (p|23) = 1
        CaseSpec("q23", _WILTON_RESIDUES, (2, 3, 23, M_NEVER), frobenius=(1, 2)),
        # 691 does not divide tau(n) (r mod 691 by m0, the order of r but 691 for r = 1, then p = 691)
        _tau_case(691),
        # n is a sum of two squares; classes: p = 1 (4), p = 3 (4), p = 2
        CaseSpec("two_squares", (0, 0, 2, 1), (M_NEVER, 2, M_NEVER)),
    ]
}

# Table row order for the six-case summary.
TABLE_CASES = ["two_squares", "q5", "q7", "q3", "q691", "q23"]


def get_case(case) -> CaseSpec:
    """A CaseSpec as it is, or the case of a tag in CASES."""
    if isinstance(case, CaseSpec):
        return case
    return CASES[_args.tag(case, CASES, "case tag", UnsupportedCaseError)]


def class_index(case, limit: int) -> np.ndarray:
    """Class index of every prime <= limit, aligned with sieve_primes(limit)."""
    spec = get_case(case)
    return spec.classify(pr.sieve_primes(limit).primes)


def _f_zero(spec: CaseSpec, primes: np.ndarray) -> np.ndarray:
    """f(p) = 0, i.e. m0 in {2, ALWAYS}, for each prime in an array, by residue."""
    zero = spec._residue_f_zero
    return zero[primes - primes // len(zero) * len(zero)]  # numpy's // by a scalar is 2x its %


def _small_rules(spec: CaseSpec, x: int) -> tuple[np.ndarray, list]:
    """The primes <= x, and the rules (p, p^e, skip) of the primes p <= sqrt(x).

    There is one rule for each e >= 1 with p^e <= x and f(p^e) = 0: for a
    finite m0, e = m0-1, 2*m0-1, ..., and skip is True, as f(p^(e+1)) = 1;
    for ALWAYS, one rule with e = 1 and skip False, as every n with p | n
    is a zero.
    """
    if x == 1:
        return np.zeros(0, dtype=np.int64), []
    primes = pr.sieve_primes(x).primes
    small = primes[: primes.searchsorted(math.isqrt(x), side="right")]
    rules = []
    for p, m0 in zip(small.tolist(), spec._m0s[spec.classify(small)].tolist()):
        if m0 == M_ALWAYS:
            rules.append((p, p, False))
        elif m0 != M_NEVER and m0 <= x.bit_length():  # else p^(m0-1) >= 2^(m0-1) > x
            pe = p ** (m0 - 1)
            while pe <= x:
                rules.append((p, pe, True))
                pe *= p**m0
    return primes, rules


def _mark(seg: np.ndarray, lo: int, rules, step: int = 1) -> None:
    """Clear seg[i] for every n = lo + step*i that a rule (p, p^e, skip)
    rules out: v_p(n) = e exactly if skip, else p^e | n.  step is 1 or 2;
    with step 2 (count_f marks the odd n so) every p must be odd.

    The multiples of p^e are every p^e-th entry of seg, a strided view v;
    every p-th of them is a multiple of p^(e+1), which a skip rule saves
    and writes back after it clears v.  Both starts come from i1, the first
    index of a multiple of p^(e+1): lo + step*i1 = 0 (mod p^(e+1)), where
    1/2 = (m + 1)/2 modulo an odd m.  So a rule changes only its own zeros,
    and the rules can run in any order.  n = 0 counts as a multiple of
    every p^(e+1), which a skip rule leaves as it was: seg[0] must be False
    already when lo = 0.
    """
    hi = lo + step * len(seg)
    for p, pe, skip in rules:
        m = p * pe
        i1 = -lo * ((m + 1) >> 1 if step == 2 else 1) % m
        v = seg[i1 % pe :: pe]
        if skip and m < hi and i1 < len(seg):  # some n > 0 in seg is a multiple of m
            first = i1 // pe
            kept = v[first::p].copy()
            v[:] = False
            v[first::p] = kept
        else:
            v[:] = False


def f_sieve(case, x: int) -> np.ndarray:
    """Boolean array b with b[n] = f(n) for 0 <= n <= x (b[0] = False).

    The rules of the primes p <= sqrt(x) are marked by _mark over all of
    b.  A prime p > sqrt(x) divides
    n <= x at most once, as n = j*p with j < p, and f(n) = 0 exactly when
    f(p) = 0: those multiples are cleared per cofactor j.  A float x is
    truncated to an integer; b has x + 1 entries.
    """
    spec = get_case(case)
    x = _args.integer(x, "x", 1, COUNT_DESK_LIMIT, "counting desk", truncate=True)
    primes, rules = _small_rules(spec, x)
    out = np.ones(x + 1, dtype=bool)
    out[0] = False
    _mark(out, 0, rules)
    big = primes[np.searchsorted(primes, math.isqrt(x), side="right") :]
    zero = big[_f_zero(spec, big)]
    if len(zero):
        for j in range(1, x // int(zero[0]) + 1):
            out[j * zero[: np.searchsorted(zero, x // j, side="right")]] = False
    return out


def count_f(case, x: int) -> int:
    """Exact #{n <= x : f(n) = 1}.

    Up to primes.SEGMENT_SIZE (read at call time), the count is a prefix
    count of the case's table of f (_Tables.f): f_sieve(case, X) for the
    largest such X asked for so far, kept read-only and rebuilt when a
    larger x comes.  The table holds X + 1 bools, at most one
    window (about 1 MB).  A cold call pays for the f_sieve build, 3-4
    times the windows' count (about 1.1 ms against 0.3 ms at 1e5, and
    6.4 ms against 2.4 ms at 2^20, on a 2-vCPU Xeon); every later call
    up to X is one count_nonzero (7 us at 1e5, against 250 us).  A
    larger x is counted window by window (_count_windows), with no
    table.  A float x is truncated.
    """
    spec = get_case(case)
    x = _args.integer(x, "x", 1, COUNT_DESK_LIMIT, "counting desk", truncate=True)
    if x > pr.SEGMENT_SIZE:
        return _count_windows(spec, x)
    tables = spec._tables
    f = tables.f  # one read: a call counts from the table it checked
    if x >= len(f):
        f = f_sieve(spec, x)
        f.flags.writeable = False
        tables.f = f
    return int(np.count_nonzero(f[: x + 1]))


def _count_windows(spec: CaseSpec, x: int) -> int:
    """count_f for an int x >= 1, with f_sieve's rules but no big-prime pass.

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

    Only the odd n are marked.  b is multiplicative, as each rule reads
    one prime's exponent, so b(2^a m) = b(2^a) b(m) for odd m, and the n
    <= y with 2-adic valuation a are the 2^a m with m odd and m <= y >> a:

        #{n <= y : b[n] = 1} = sum_{a : b(2^a) = 1} G(y >> a),

    with G(y) = #{odd m <= y : b[m] = 1}; b(2^a) = 1 for every a when 2 has
    no rule.  The sum is exact: it sorts the n <= y by a, and each class is
    counted once.  The cuts x >> a are prefixes of the windows.  F is built
    from the first window: b(m) is copied to the n = 2^a m <= sqrt(x) at
    each a with b(2^a) = 1, one strided slice each, and F is the running
    count of that array.

    b is never held whole: _mark fills one reused window of
    max(primes.SEGMENT_SIZE, sqrt(x)/2 + 1) odd n at a time, with the rules
    of the odd primes and step 2, and each window subtracts the terms of
    its own big primes.  So the working memory is one window and the big
    primes of one window, besides the shared prime table.
    """
    primes, rules = _small_rules(spec, x)
    root = math.isqrt(x)
    # 2's rules come first; a rule (2, 2^e, skip) clears 2^a at a = e if
    # skip, else at every a >= 1 (ALWAYS).  twos holds the a with 2^a <= x
    # and b(2^a) = 1, a = 0 first.
    odd = next((i for i, rule in enumerate(rules) if rule[0] != 2), len(rules))
    cleared = {pe.bit_length() - 1 for _, pe, _ in rules[:odd]}
    if odd and not rules[0][2]:
        twos = [0]
    else:
        twos = [a for a in range(x.bit_length()) if a not in cleared]
    cuts = [x >> a for a in twos]
    odd_rules = rules[odd:]
    n_odd = (x + 1) // 2
    size = max(pr.SEGMENT_SIZE, (root + 1) // 2 + 1)
    seg = np.empty(min(size, n_odd), dtype=bool)
    count = 0
    for start in range(0, n_odd, size):
        lo = 2 * start + 1
        window = seg[: min(size, n_odd - start)]  # the odd n in [lo, end)
        end = lo + 2 * len(window)
        window[:] = True
        _mark(window, lo, odd_rules, step=2)
        full = np.count_nonzero(window)
        for y in cuts:  # the odd m <= y in the window are a prefix of it
            if y >= end:
                count += full
            elif y >= lo:
                count += np.count_nonzero(window[: (y - lo) // 2 + 1])
        if start == 0:  # F counts b(n) = b(2^a) b(m) over n = 2^a m <= sqrt(x)
            marked = np.zeros(root + 1, dtype=bool)
            for a in twos:
                if 1 << a <= root:
                    marked[1 << a :: 2 << a] = window[: ((root >> a) + 1) // 2]
            running = marked.cumsum()
        big = primes[slice(*primes.searchsorted((max(lo, root + 1), end)))]
        count -= running[x // big[_f_zero(spec, big)]].sum()
    return int(count)


# The S1 prefix holds one row every _S1_BLOCK primes, so a call adds at most
# _S1_BLOCK - 1 terms of k = 1 itself, few enough to read in Python (a row
# is 24 B, so 0.12 MB a case for the 78,498 primes below 1e6); it grows
# _S1_CHUNK primes a pass, a whole number of blocks, which bounds its
# temporaries.
_S1_BLOCK = 16
_S1_CHUNK = 1 << 15
# One float addition rounds by at most 2^-53 times its result.  The factor
# covers the rounding of the running sum of |lo| that this multiplies, which
# can fall short of the exact sum by a factor (1 - 2^-53)^n for the n < 2^22
# primes below COUNT_DESK_LIMIT.
_LO_ROUNDING = 2.0**-53 * (1 + 2.0**-30)
_EPS = 2.0**-52


def _two_sum_run(row: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hi, lo and the running sum of |lo| after each term of t, going on
    from the row (hi, lo, sum of |lo|) before them.

    hi is the sequential float sum of the terms, lo the float sum of the
    exact rounding errors of hi's additions (TwoSum), so hi + lo is the
    exact sum up to lo's own rounding, which the running sum of |lo| times
    _LO_ROUNDING bounds: each of lo's additions rounds by at most 2^-53
    times its result.
    """
    run = np.cumsum(np.concatenate((row[:1], t)))
    prev, hi = run[:-1], run[1:]
    if not np.array_equal(prev + t, hi):
        raise ConsistencyError("np.cumsum did not add the H_f terms one at a time")
    back = hi - prev
    err = (prev - (hi - back)) + (t - back)  # prev + t = hi + err, exactly
    lo = np.cumsum(np.concatenate((row[1:2], err)))[1:]
    abs_lo = np.cumsum(np.concatenate((row[2:3], np.abs(lo))))[1:]
    return hi, lo, abs_lo


class _Tables:
    """The tables one case keeps between calls, each built on first need.

    f is count_f's table of f: f_sieve(case, X), read-only, for the largest
    X <= primes.SEGMENT_SIZE asked for (X = len(f) - 1).

    The rest are the call-invariant parts of H_f: two prefixes of running
    TwoSum pairs (_two_sum_run), one of the k = 1 terms and one of the
    k >= 2 terms, both reaching the largest x asked for (covered).

    S1 = sum of log p/p over the primes p with f(p) = 1 is kept at every
    _S1_BLOCK-th (16th) prime of the shared prime table: row j of s1 is
    (hi, lo, sum of |lo|) after the terms of the first j*_S1_BLOCK primes,
    0 where f(p) = 0, which it reads from the residues alone.  zero is that
    rule as a list (f(p) = 0 at zero[p % m]), which h_f reads for the
    primes past the last full block.

    The k >= 2 terms, Lambda_f(p^k)/p^k from the closed form, are kept
    sorted by p^k (pk): row i of pk_sums is (hi, lo, sum of |lo|,
    sum of |term|) after the first i of them.  p^k is unique for each
    (p, k), so the terms with p^k <= x are a prefix of that order for every
    x <= covered, the same terms whatever covered is.  A larger x rebuilds
    the table for itself, classifying only the primes <= sqrt(x).

    So every row is the same float whatever calls built it, and a result
    depends on x only.  Each spec holds its own (CaseSpec._tables), so a copy
    of a spec starts empty; making one sieves and builds nothing.
    """

    def __init__(self, spec: CaseSpec):
        self.spec = spec
        self.f = np.zeros(1, dtype=bool)  # f(0) = 0 alone: no x >= 1 covered
        self.tau = float(spec.tau)
        self.zero = spec._residue_f_zero.tolist()  # f(p) = 0 by p's residue, for the tail
        self.s1 = np.zeros((1, 3))
        self.covered = 0  # the x of the k >= 2 table
        self.pk, self.pk_sums = np.zeros(0, dtype=np.int64), np.zeros((1, 4))

    def grow(self, x: int) -> pr.PrimeTable:
        """Make both prefixes reach x, and return the shared largest prime
        table, which holds every prime <= x."""
        pr.sieve_primes(x)  # only so that the largest table reaches x
        table = pr._largest
        # add the rows of every full block of the primes <= x not yet in s1
        stop = int(table.primes.searchsorted(x, side="right")) // _S1_BLOCK * _S1_BLOCK
        for start in range((len(self.s1) - 1) * _S1_BLOCK, stop, _S1_CHUNK):
            end = min(start + _S1_CHUNK, stop)
            p = table.primes[start:end]
            t = table.logs[start:end] / p
            t[_f_zero(self.spec, p)] = 0.0
            # rows copies the block ends, so no pass's columns stay alive
            # through the next pass's temporaries
            ends = slice(_S1_BLOCK - 1, None, _S1_BLOCK)
            rows = np.column_stack([c[ends] for c in _two_sum_run(self.s1[-1], t)])
            self.s1 = np.concatenate((self.s1, rows))
        if x > self.covered:
            pk, t = _prime_power_terms(self.spec, table, x)
            hi, lo, abs_lo = _two_sum_run(self.pk_sums[0], t)
            sums = np.column_stack((hi, lo, abs_lo, np.cumsum(np.abs(t))))
            self.pk, self.pk_sums = pk, np.concatenate((self.pk_sums[:1], sums))
            self.covered = x
        return table


def _prime_power_terms(spec: CaseSpec, table: pr.PrimeTable, x: int) -> tuple[np.ndarray, np.ndarray]:
    """p^k and Lambda_f(p^k)/p^k for every p^k <= x with k >= 2, sorted by p^k."""
    r = int(np.searchsorted(table.primes, math.isqrt(x), side="right"))
    if not r:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
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
    pk = p[i] ** k
    order = np.argsort(pk)  # p^k is unique for each (p, k)
    pk, k, i = pk[order], k[order], i[order]
    return pk, logs[i] * _lambda_over_log(m0[i], k) / pk


def h_f(case, x: float) -> ValueWithBudget:
    """H_f(x) = sum_{p^k <= x} Lambda_f(p^k)/p^k - tau*log x.

    Exact truncation (there is no tail).  A call reads one row of each of
    the case's two prefixes (_Tables): the S1 pair hi + lo of the first
    j*_S1_BLOCK primes <= x, j = pi(x) // _S1_BLOCK with _S1_BLOCK = 16,
    and the pair of every k >= 2 term with p^k <= x.  math.fsum adds both
    pairs to the terms log p/p of the fewer than 16 primes left with
    f(p) = 1, read by residue in Python, and tau*log x is subtracted.  Up
    to the largest x asked for, a call finds pi(x) in the shared largest
    prime table and neither sieves nor builds a table; a larger x first
    grows both prefixes, reading the primes and logs of that same table.
    The budget covers rounding only: eps*(sum of |terms| + |tau log x| +
    |value|), plus both prefixes' bounds on the rounding of lo.
    """
    spec = get_case(case)
    xi = _args.integer(x, "x", 2, COUNT_DESK_LIMIT, "prime-power enumeration", truncate=True)
    tables = spec._tables
    # the shared largest table only grows, so it holds every prime <= covered
    table = tables.grow(xi) if xi > tables.covered else pr._largest
    n = int(table.primes.searchsorted(xi, side="right"))  # pi(x)
    j = n // _S1_BLOCK
    # the k = 1 terms past the last full block, kept by residue; lg / p is the
    # same float64 division as numpy's, as every p < 2^53 is an exact float
    zero, m, lo = tables.zero, len(tables.zero), j * _S1_BLOCK
    tail = [lg / p for p, lg in zip(table.primes[lo:n].tolist(), table.logs[lo:n].tolist()) if not zero[p % m]]
    i = int(tables.pk.searchsorted(xi, side="right"))  # the k >= 2 terms with p^k <= x
    s1_hi, s1_lo, s1_abs_lo = tables.s1[j].tolist()
    pk_hi, pk_lo, pk_abs_lo, pk_abs = tables.pk_sums[i].tolist()

    tau_log = tables.tau * math.log(x)
    value = math.fsum([s1_hi, s1_lo, pk_hi, pk_lo, *tail]) - tau_log
    # sum of |terms| (every k = 1 term is >= 0), raised by (N + 4) eps for its
    # N = n + i terms: a float sum of N nonnegative terms in any order lies
    # within (N - 1) eps/2 of the exact sum, relative, and this one rounds at
    # most N + 3 times, so the raised sum bounds the exact one and every
    # float order's sum, the full-array reference's included, from above
    abs_sum = (s1_hi + abs(s1_lo) + sum(tail) + pk_abs) * (1 + (n + i + 4) * _EPS)
    budget = _EPS * (abs_sum + abs(tau_log) + abs(value)) + s1_abs_lo * _LO_ROUNDING + pk_abs_lo * _LO_ROUNDING
    return ValueWithBudget(value, budget)


def dirichlet_series_truncated(case, s: float, n_terms: int) -> float:
    """sum_{n <= N} f(n) n^(-s), exactly rounded (math.fsum)."""
    s = _args.real(s, "s", PreconditionError, float_range=True)
    if not s > 1:
        raise PreconditionError(f"s must be > 1, got {_args.shown(s)}")
    f = f_sieve(case, n_terms)
    n = np.flatnonzero(f).astype(np.float64)
    return math.fsum(n ** (-s))
