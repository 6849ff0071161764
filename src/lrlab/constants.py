"""Assembly of the second-order constants and claim verdicts.

Writing the counting function's Dirichlet series as T(s) = zeta(s)^tau g(s)
with g regular past Re(s) = 1/2 gives B_f = -tau*gamma - g'(1)/g(1), and the
second-order coefficient of the counting asymptotic is

    C_2(f) = (1 - tau) (1 + B_f).

The claimed integral form of the asymptotic forces B_f = 0, so a computed
B_f bounded away from zero (beyond its error budget) refutes the claim.

B_f is read off the case's one Euler factorization, which multfn derives
from the case's classes and zero periods (CaseSpec.euler),
T(s)^n = zeta(s)^(n tau) prod L(s, chi)^e H(s) = zeta(s)^(n tau) g(s)^n,
by one assembler (_log_g) that gives n log g(s) or -n g'/g(s) term by
term.  Since -d/ds log (1 - p^(-a s))^c = -c a log p/(p^(a s) - 1),

    B_f = -tau gamma - (1/n) [ sum_chi e Re L'/L(1, chi)
                               + sum over the local factors (c, a) of H of
                                 c a sum_p log p/(p^a - 1) ],

where each class sum is exact to rounding: direct below P = 1000, Moebius
inversion of L-values at s >= 2 above.  A class is a union of residue
classes (lseries.prime_class_sum), or one of q23's Wilton classes S2 and S3,
which are Frobenius classes of the Hilbert class field of Q(sqrt(-23))
(lseries.frobenius_class_sum, through L(s, rho) of eta(z) eta(23z)).  A
factor with a = 1 sits on the class of a prime that divides the modulus,
a finite sum.  verify checks q3's B_f against its zeta(2s)^-2 rewrite.

L'/L(1, chi^j) for every character mod m is read from one table
(lseries._log_l_table, built from one inverse DFT per derivative order),
which serves the 345 characters of q691's T(s)^690 factorization as well
as the one or two of the other rows.  The paper's q691 value leaves out
the local factors of that factorization's order classes:
  B ~ (log 691)/690^2 - (689/690) gamma
      - (1/690) sum_{j=0}^{344} L'/L(1, chi_c^(2j+1))
      + (1/690) sum_{j=1}^{344} L'/L(1, chi_c^(2j)).
It is kept as a cross-check (b691_approx); B_f - b691_approx is the share of
those four residual products, about 2.7e-6.

First-order constants, C = g(1)/Gamma(tau), from the class sums of
-log(1 - p^-a).  For q5 the same assembler reads g(1) off the derived
T(s)^4 = zeta(s)^3 L(s, chi_c) L(s, chi_c~) L(s, chi_5)^-1 (1 - 5^-s)^3 H(s);
its L-values must agree with the closed forms L(1, chi_5) =
log((3+sqrt5)/2)/sqrt5 and |L(1, chi_c)|^2 = 2 pi^2/25.  The two-squares
constant K = 2^(-1/2) prod_{p=3(4)} (1 - p^-2)^(-1/2) keeps its closed
product: the factorization route would read L(1, chi_-4) = pi/4 from the
kernel, which raises K's budget from 6.6e-15 to 1.1e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _args
from .budget import ValueWithBudget
from .characters import generator_character
from .errors import ConsistencyError, UnsupportedCaseError
from .lseries import (
    _EPS,
    _exact,
    _log_l_table,
    _rounded,
    closed_form_l_values,
    euler_gamma_value,
    frobenius_class_sum,
    l_derivative_at_1,
    prime_class_sum,
)
from .multfn import TABLE_CASES, get_case, h_f

__all__ = [
    "ConstantReport",
    "CLAIM_FALSE",
    "INCONCLUSIVE",
    "TABLE1_PRINTED",
    "second_order_constant",
    "b691_approx",
    "b691_character_sums",
    "landau_ramanujan_K",
    "first_order_C5",
    "table1",
]

CLAIM_FALSE = "CLAIM_FALSE"
INCONCLUSIVE = "INCONCLUSIVE"

# Published reference table (truncated decimals as printed), used by reports
# and the verification gate: H(1e5), H(1e6), B_f, C_2, claimed C_2.
TABLE1_PRINTED = {
    "two_squares": (+0.163, +0.162, +0.1638, 0.5819, Fraction(1, 2)),
    "q5": (-0.401, -0.400, -0.3995, 0.1501, Fraction(1, 4)),
    "q7": (-0.232, -0.232, -0.2316, 0.3841, Fraction(1, 2)),
    "q3": (-0.532, -0.534, -0.5349, 0.2325, Fraction(1, 2)),
    "q691": (-0.571, -0.571, -0.5717, 0.0006, Fraction(1, 690)),
    "q23": (-0.217, -0.217, -0.2166, 0.6083, Fraction(1, 2)),
}

# The x at which every report evaluates H_f, as in the printed table.
HF_CHECKPOINTS = (10**5, 10**6)


@dataclass(frozen=True)
class ConstantReport:
    """Per-case record: density, B_f, C_2, checkpoints, and the verdict: CLAIM_FALSE iff
    C_2 differs from the claimed value by more than its budget, else INCONCLUSIVE."""

    case: str
    tau: Fraction
    delta: Fraction
    b_f: ValueWithBudget
    c2: ValueWithBudget
    c2_ramanujan: Fraction
    h_checkpoints: tuple  # ((x, H_f(x) as ValueWithBudget), ...)
    verdict: str
    first_order: ValueWithBudget | None = None
    lambda_c2: ValueWithBudget | None = None  # q3 companion C_2(l) = C_2(t) - log(3)/2
    c2_printed_reference: float | None = None  # q23: the printed 0.6083
    notes: tuple = ()


def _scaled(coef, v):
    """coef * v, exact (no budget rounding) for coef = +-1."""
    return v if coef == 1 else -v if coef == -1 else coef * v


def _exp(v: ValueWithBudget) -> ValueWithBudget:
    """exp of a real value: |e^(x + d) - e^x| <= e^x expm1(|d|), plus one ulp."""
    value = math.exp(v.value)
    return ValueWithBudget(value, value * math.expm1(v.budget) * (1.0 + 4.0 * _EPS) + math.ulp(value))


def _class_sum(spec, j: int, s, derivative: int = 1) -> ValueWithBudget:
    """sum_{p in class j} log p/(p^s - 1) (derivative 1) or -log(1 - p^-s)
    (derivative 0), over a Frobenius class or a union of residue classes."""
    if j in spec.frobenius:
        return frobenius_class_sum([j], s, derivative)
    return prime_class_sum(len(spec.residues), spec.class_residues(j), s, derivative)


def _log_g(spec, s, derivative: int, start) -> ValueWithBudget:
    """start + n log g(s) (derivative 0) or start - n g'/g(s) (derivative 1),
    where T(s)^n = zeta(s)^(n tau) g(s)^n is the case's Euler factorization
    (module docstring), at s = 1 or an integer s >= 2.

    A local factor (1 - p^(-a s))^c of class j adds -c a^d times the class
    sum at a s, d the derivative.
    """
    euler = spec.euler
    s = _exact(s)
    # -L'/L(s, chi^j) or log L(s, chi^j), and budgets
    y, dy = _log_l_table(euler.modulus, s, derivative)
    terms = [(w, ValueWithBudget(float(y[j].real), float(dy[j]))) for j, w in euler.l_weights()]
    for j, factor in enumerate(euler.classes):
        terms += [(-c * a**derivative, _class_sum(spec, j, a * s, derivative)) for c, a in factor]
    for coef, v in terms:
        start = start + _scaled(coef, v)
    return start


def _b_from_euler(spec) -> ValueWithBudget:
    """B_f = -tau gamma - g'(1)/g(1) from the case's Euler factorization of T(s)^n."""
    n = spec.euler.n
    return _log_g(spec, 1, 1, _scaled(-float(n * spec.tau), euler_gamma_value())) / n


# ---------------------------------------------------------------------------
# q = 691: the paper's character-sum formula, a cross-check of the table row
# ---------------------------------------------------------------------------

def b691_character_sums() -> tuple[ValueWithBudget, ValueWithBudget]:
    """The odd- and even-character sums of L'/L(1, chi_c^j) mod 691."""
    y, dy = _log_l_table(691, 1, 1)  # -L'/L(1, chi_c^j)
    # odd j = 1, 3, ..., 689 (345 terms), even j = 2, 4, ..., 688 (344 terms)
    return tuple(
        ValueWithBudget(-complex(math.fsum(y[j::2].real), math.fsum(y[j::2].imag)), float(np.sum(dy[j::2])))
        for j in (1, 2)
    )


def b691_approx() -> ValueWithBudget:
    """The paper's B_f for q = 691, without the four residual products.

    B ~ (log 691)/690^2 - (689/690) gamma - odd_sum/690 + even_sum/690.
    """
    odd, even = b691_character_sums()
    g = euler_gamma_value()
    return (
        math.log(691.0) / 690.0**2
        - (689.0 / 690.0) * g
        - odd.real / 690.0
        + even.real / 690.0
    )


# ---------------------------------------------------------------------------
# First-order constants
# ---------------------------------------------------------------------------

def landau_ramanujan_K() -> ValueWithBudget:
    """K = 2^(-1/2) prod_{p = 3 (4)} (1 - p^-2)^(-1/2)."""
    log_k = 0.5 * prime_class_sum(4, [3], 2, derivative=0) - _rounded(0.5 * math.log(2.0))
    return _exp(log_k)


def first_order_C5() -> ValueWithBudget:
    """First-order constant of the q5 count, C = g(1)/Gamma(3/4), from the
    case's factorization T(s)^4 = zeta(s)^3 g(s)^4.

    The L-values in it, L(1, chi_5) and |L(1, chi_c)|^2, must agree with
    their closed forms within budgets (ConsistencyError otherwise).
    """
    l_c = l_derivative_at_1(generator_character(5, 1), 0)
    l_values = {"chi5": l_derivative_at_1(generator_character(5, 2), 0).real,
                "chi_c_pair_mod5": (l_c * l_c.conjugate()).real}
    for tag, v in l_values.items():
        closed = closed_form_l_values(tag)
        # a handful of roundings, each of at most one ulp
        if not v.agrees_with(ValueWithBudget(closed, 8.0 * _EPS * closed)):
            raise ConsistencyError(f"L-value {tag} disagrees with its closed form: {v} vs {closed}")
    spec = get_case("q5")
    return _exp(_log_g(spec, 1, 0, 0.0) / spec.euler.n) / _rounded(math.gamma(0.75))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def second_order_constant(case) -> ConstantReport:
    """Assemble B_f, C_2 = (1 - tau)(1 + B_f), H_f at the printed checkpoints
    and the verdict for a case (a tag or a CaseSpec), cached for the last
    32 cases."""
    get_case(case)  # before the cache hashes case
    return _second_order_constant(case)


@lru_cache(maxsize=32)
def _second_order_constant(case) -> ConstantReport:
    spec = get_case(case)
    tag = spec.tag
    b = _b_from_euler(spec)  # a case with no factorization (q2) raises here
    c2 = float(1 - spec.tau) * (1.0 + b)

    checkpoints = tuple((x, h_f(spec, float(x))) for x in HF_CHECKPOINTS)

    first_order = None
    lambda_c2 = None
    printed_ref = None
    notes: tuple = ()
    if tag == "two_squares":
        first_order = landau_ramanujan_K()
    elif tag == "q5":
        first_order = first_order_C5()
    elif tag == "q3":
        lambda_c2 = c2 - 0.5 * math.log(3.0)
        notes = (
            "companion partition count: C2(lambda) = C2 - log(3)/2, compared to 1/2",
        )
    elif tag == "q23":
        printed_ref = float(TABLE1_PRINTED["q23"][3])
        notes = (
            "printed reference table lists C2 = 0.6083, inconsistent with "
            "C2 = (1-tau)(1+B_f) applied to its own B_f = -0.2166 (which gives "
            "0.3917); the identity value is reported",
        )
    elif tag == "q691":
        notes = (
            "printed reference table lists H_f(1e6) = -0.571, but the defining "
            "sum evaluates to -0.5721 (cross-checked against the von Mangoldt "
            "sum plus the explicit correction over the 105 primes = -1 mod 691 "
            "below 1e6); the computed value is reported",
        )

    return ConstantReport(
        case=tag,
        tau=spec.tau,
        delta=spec.delta,
        b_f=b,
        c2=c2,
        c2_ramanujan=spec.delta,
        h_checkpoints=checkpoints,
        verdict=CLAIM_FALSE if abs(c2.value - float(spec.delta)) > c2.budget else INCONCLUSIVE,
        first_order=first_order,
        lambda_c2=lambda_c2,
        c2_printed_reference=printed_ref,
        notes=notes,
    )


second_order_constant.cache_info = _second_order_constant.cache_info
second_order_constant.cache_clear = _second_order_constant.cache_clear


def table1(cases=None) -> list[ConstantReport]:
    """The six-row summary: second_order_constant of each case, every case
    for None or an empty collection."""
    tags = _args.tags(() if cases is None else cases, TABLE_CASES, "cases", UnsupportedCaseError)
    return [second_order_constant(t) for t in tags or TABLE_CASES]
