"""The hand-written Euler factorizations of the six table cases.

multfn derives each case's T(s)^n = zeta(s)^(n tau) prod L(s, chi^j)^e H(s)
from its residues and zero periods (CaseSpec.tau and CaseSpec.euler).  This
is the table those derivations replace, typed from the paper's identities,
kept as the reference they must reproduce: tau, n, the L exponents
((j, e), ...) and each class's local factor ((c, a), ...), as products of
(1 - p^(-a s))^c.  A local factor may repeat an a; compare by a (merged).
"""

from dataclasses import replace
from fractions import Fraction

_DIVISORS_690 = tuple(d for d in range(1, 691) if 690 % d == 0)


def _order_factor(nu: int) -> tuple:
    """The local factor of the T(s)^690 identity at the primes of order nu mod 691."""
    if nu == 1:
        return ((690, 690), (-690, 691))
    if nu == 2:
        return ((-345, 2),)
    even = ((690 // nu, nu), (-(1380 // nu), nu // 2)) if nu % 2 == 0 else ()
    return even + ((690, nu - 1), (-690, nu))


# tag: (tau, n, l_exponents, classes), the classes in the order of CaseSpec.m0
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
