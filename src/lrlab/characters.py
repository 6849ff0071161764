"""Dirichlet characters for the moduli {3, 4, 5, 7, 23, 691}.

Every unit group here is cyclic, with the fixed generator g = GENERATORS[m]:
2 mod 3, 3 mod 4, 2 mod 5, 3 mod 7, 5 mod 23, 3 mod 691.  The discrete-log
table walks the powers of g until they return to 1, so the length of that
cycle is phi(m).  A character is the pair (m, j) standing for chi_c^j,
j = 0..phi(m)-1, where chi_c^j(g^a) = exp(2*pi*i * j * a / phi(m)); its
powers and conjugate are indices too: (chi_c^j)^n = chi_c^(j*n) and
conj(chi_c^j) = chi_c^(-j).  No value table is kept: lseries takes the
L-values of all characters mod m at once, by one inverse DFT over the
discrete logs.

The mod-5 characters of interest are chi_c with chi_c(2) = i (index 1) and
chi_5 with chi_5(2) = -1 (index 2); mod 691 the generator character has
chi_c(3) = exp(2*pi*i/690).  The quadratic character of index phi(m)/2 is
the Kronecker symbol (D|.) with D = -m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _args

__all__ = [
    "DirichletCharacter",
    "kronecker_character",
    "generator_character",
    "character_group",
    "euler_phi",
    "GENERATORS",
]

GENERATORS = {3: 2, 4: 3, 5: 2, 7: 3, 23: 5, 691: 3}

_SUPPORTED_KRONECKER = (-3, -4, -7, -23)


@dataclass(frozen=True)
class DirichletCharacter:
    """chi_c^index mod ``modulus`` (module docstring)."""

    modulus: int
    index: int

    def __post_init__(self):  # lseries trusts the fields, so a hand-made character is checked here
        top = int(_dlog_table(_args.tag(self.modulus, GENERATORS, "modulus")).max())  # phi(m) - 1
        _args.integer(self.index, "character index", 0, top)

    @property
    def principal(self) -> bool:
        return self.index == 0


@lru_cache(maxsize=None)
def _dlog_table(m: int) -> np.ndarray:
    """Discrete logs base GENERATORS[m] mod m; -1 marks residues off the unit group."""
    dlog = np.full(m, -1, dtype=np.int64)
    x, a = 1, 0
    while dlog[x] < 0:
        dlog[x] = a
        x, a = x * GENERATORS[m] % m, a + 1
    dlog.flags.writeable = False
    return dlog


def euler_phi(m: int) -> int:
    """phi(m) = |(Z/mZ)^*|, the length of g's cycle, for a modulus in GENERATORS."""
    return int(_dlog_table(_args.tag(m, GENERATORS, "modulus")).max()) + 1


def generator_character(m: int, j: int) -> DirichletCharacter:
    """chi_c^j mod m, the character with chi(g) = exp(2*pi*i*j/phi(m))."""
    group = character_group(m)
    return group[_args.integer(j, "character index") % len(group)]


def kronecker_character(D: int) -> DirichletCharacter:
    """The real quadratic character chi_D(n) = (D|n) mod |D| for D in {-3,-4,-7,-23}."""
    D = _args.tag(D, _SUPPORTED_KRONECKER, "discriminant")
    return character_group(-D)[euler_phi(-D) // 2]


def character_group(m: int) -> tuple[DirichletCharacter, ...]:
    """All phi(m) characters mod m, chi_c^j at position j."""
    return _character_group(_args.tag(m, GENERATORS, "modulus"))  # before the cache hashes m


@lru_cache(maxsize=None)
def _character_group(m: int) -> tuple[DirichletCharacter, ...]:
    return tuple(DirichletCharacter(m, j) for j in range(euler_phi(m)))
