"""The hand-written case table and Euler factorizations of the table cases.

multfn derives the residues and zero periods of the cases "q does not
divide tau(n)", q = 2, 3, 5, 7 and 691, from tau(n) = n^v sigma_w(n) (mod q)
(multfn._tau_case).  HAND_CASES is the table that derivation replaces,
(residues, m0) as CASES once wrote them, kept as the reference it must
reproduce: the same classes, each with the same m0 (the class order may
differ).

multfn derives each case's T(s)^n = zeta(s)^(n tau) prod L(s, chi^j)^e H(s)
from its residues and zero periods (CaseSpec.tau and CaseSpec.euler).
REFERENCE is the table those derivations replace, typed from the paper's
identities, kept as the reference they must reproduce: tau, n, the L
exponents ((j, e), ...) and each class's local factor ((c, a), ...), as
products of (1 - p^(-a s))^c.  A local factor may repeat an a; compare by a
(merged).
"""

import math
from dataclasses import replace
from fractions import Fraction

from lrlab.characters import _dlog_table
from lrlab.multfn import M_ALWAYS, M_NEVER

_DIVISORS_690 = tuple(d for d in range(1, 691) if 690 % d == 0)
# The class of r mod 691: the index of its order in _DIVISORS_690; the last class is p = 691.
# g^a has order 690/gcd(a, 690) for the generator g = characters.GENERATORS[691].
_ORDER_CLASSES = (len(_DIVISORS_690),) + tuple(
    _DIVISORS_690.index(690 // math.gcd(int(a), 690)) for a in _dlog_table(691)[1:]
)

# tag: (residues, m0), the class of each residue mod q and the zero period of each class
HAND_CASES = {
    # 2 does not divide tau(n); classes: p = 2, odd p
    "q2": ((0, 1), (M_ALWAYS, 2)),
    # 3 does not divide tau(n); classes: p = 3, p = 2 (3), p = 1 (3)
    "q3": ((0, 2, 1), (M_ALWAYS, 2, 3)),
    # 5 does not divide tau(n); classes: p = 5, p = 1 (5), p = +-2 (5), p = 4 (5)
    "q5": ((0, 1, 2, 2, 3), (M_ALWAYS, 5, 4, 2)),
    # 7 does not divide tau(n); classes: p = 7, quadratic residues mod 7, non-residues
    "q7": ((0, 1, 1, 2, 1, 2, 2), (M_ALWAYS, 7, 2)),
    # 691 does not divide tau(n); classes: by the order nu of p mod 691 (m0 = nu,
    # but 691 for nu = 1), then p = 691
    "q691": (_ORDER_CLASSES, tuple(691 if d == 1 else d for d in _DIVISORS_690) + (M_NEVER,)),
}


def _order_factor(nu: int) -> tuple:
    """The local factor of the T(s)^690 identity at the primes of order nu mod 691."""
    if nu == 1:
        return ((690, 690), (-690, 691))
    if nu == 2:
        return ((-345, 2),)
    even = ((690 // nu, nu), (-(1380 // nu), nu // 2)) if nu % 2 == 0 else ()
    return even + ((690, nu - 1), (-690, nu))


# tag: (tau, n, l_exponents, classes), the classes in the order of the hand
# table's m0: HAND_CASES's, or CaseSpec.m0's for q23 and two_squares
REFERENCE = {
    # chi_-3 = chi^1 mod 3
    "q3": (Fraction(1, 2), 2, ((1, 1),), (((1, 1),), ((-1, 2),), ((-2, 3), (2, 2)))),
    # chi_c = chi^1 mod 5 (chi_c(2) = i, with its conjugate), chi_5 = chi^2
    "q5": (Fraction(3, 4), 4, ((1, 1), (2, -1)),
           (((3, 1),), ((4, 4), (-4, 5)), ((4, 3), (-2, 2), (-3, 4)), ((-2, 2),))),
    # chi_-7 = chi^3 mod 7
    "q7": (Fraction(1, 2), 2, ((3, 1),), (((1, 1),), ((2, 6), (-2, 7)), ((-1, 2),))),
    # chi_-23 = chi^11 mod 23
    "q23": (Fraction(1, 2), 2, ((11, 1),), (((-1, 2),), ((2, 2), (-2, 3)), ((2, 22), (-2, 23)), ((-1, 1),))),
    # L(s, chi^j) mod 691 to the power +1 for odd j and -1 for even j
    "q691": (Fraction(689, 690), 690, tuple((j, 1 if j % 2 else -1) for j in range(1, 346)),
             tuple(_order_factor(d) for d in _DIVISORS_690) + (((-1, 1),),)),
    # chi_-4 = chi^1 mod 4
    "two_squares": (Fraction(1, 2), 2, ((1, 1),), ((), ((-1, 2),), ((-1, 1),))),
}


def derived_class(spec, j: int) -> int:
    """The class of spec that holds the residues of the hand table's class j."""
    if spec.tag not in HAND_CASES:  # written by hand: the same classes, in the same order
        return j
    return spec.residues[HAND_CASES[spec.tag][0].index(j)]


def merged(factor) -> dict:
    """{a: c} of a local factor ((c, a), ...), equal a added and zeros dropped."""
    out = {}
    for c, a in factor:
        out[a] = out.get(a, 0) + c
    return {a: c for a, c in out.items() if c}


def with_euler(spec, euler):
    """A fresh copy of spec whose cached factorization is ``euler``: a broken
    one, for the tests that the checks see it."""
    fresh = replace(spec)
    fresh.__dict__["euler"] = euler
    return fresh
