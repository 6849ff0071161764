"""Dirichlet characters for the moduli {3, 4, 5, 7, 23, 691}.

Every unit group here is cyclic, with the fixed generator g = GENERATORS[m]:
2 mod 3, 3 mod 4, 2 mod 5, 3 mod 7, 5 mod 23, 3 mod 691.  The generator
character chi_c has chi_c(g) = exp(2*pi*i/phi(m)), and a character is the
pair (m, j) standing for chi_c^j, j = 0..phi(m)-1:
chi_c^j(g^a) = exp(2*pi*i * j * a / phi(m)).  Powers and conjugates are
index arithmetic, and every value comes from angle arithmetic at full
binary64 accuracy (quarter turns exactly), never from accumulated complex
multiplication.

The mod-5 characters of interest are chi_c with chi_c(2) = i (index 1) and
chi_5 with chi_5(2) = -1 (index 2); mod 691 the generator character has
chi_c(3) = exp(2*pi*i/690).  The quadratic character of index phi(m)/2 is
the Kronecker symbol (D|.) with D = -m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .primes import euler_phi

__all__ = [
    "DirichletCharacter",
    "kronecker_character",
    "generator_character",
    "character_group",
    "GENERATORS",
]

GENERATORS = {3: 2, 4: 3, 5: 2, 7: 3, 23: 5, 691: 3}

_SUPPORTED_KRONECKER = (-3, -4, -7, -23)

# exp(2 pi i q/4) for the quarter turns q = 0..3
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class DirichletCharacter:
    """chi_c^index mod ``modulus`` (module docstring).

    ``values[r]`` is chi(r) for r = 0 .. m-1 (zero off the unit group).
    """

    modulus: int
    index: int

    def __call__(self, n: int) -> complex:
        return complex(self.values[int(n) % self.modulus])

    @cached_property
    def values(self) -> np.ndarray:
        m, phi = self.modulus, euler_phi(self.modulus)
        dlog = _dlog_table(m)
        unit = dlog >= 0
        turns = (self.index * dlog[unit]) % phi  # chi(r) = exp(2 pi i turns/phi)
        angles = 2.0 * np.pi * turns / phi
        on_units = np.cos(angles) + 1j * np.sin(angles)
        quarter = 4 * turns % phi == 0
        on_units[quarter] = _QUARTER_TURNS[4 * turns[quarter] // phi]
        values = np.zeros(m, dtype=np.complex128)
        values[unit] = on_units
        values.flags.writeable = False
        return values

    @property
    def principal(self) -> bool:
        return self.index == 0

    @property
    def is_real(self) -> bool:
        return 2 * self.index % euler_phi(self.modulus) == 0

    @property
    def parity(self) -> int:
        """chi(-1) = (-1)^j, since -1 = g^(phi/2): +1 for even characters and -1 for odd ones."""
        return -1 if self.index % 2 else 1

    @property
    def label(self) -> str:
        return f"chi_c^{self.index} mod {self.modulus}" if self.index else f"principal mod {self.modulus}"

    def power(self, n: int) -> "DirichletCharacter":
        return generator_character(self.modulus, self.index * n)

    def conjugate(self) -> "DirichletCharacter":
        return generator_character(self.modulus, -self.index)


@lru_cache(maxsize=None)
def _dlog_table(m: int) -> np.ndarray:
    """Discrete logs base GENERATORS[m] mod m; -1 marks residues off the unit group."""
    dlog = np.full(m, -1, dtype=np.int64)
    x = 1
    for a in range(euler_phi(m)):
        dlog[x] = a
        x = x * GENERATORS[m] % m
    dlog.flags.writeable = False
    return dlog


def generator_character(m: int, j: int) -> DirichletCharacter:
    """chi_c^j mod m, the character with chi(g) = exp(2*pi*i*j/phi(m))."""
    return character_group(m)[j % euler_phi(m)]


def kronecker_character(D: int) -> DirichletCharacter:
    """The real quadratic character chi_D(n) = (D|n) mod |D| for D in {-3,-4,-7,-23}."""
    if D not in _SUPPORTED_KRONECKER:
        raise InvalidArgumentError(f"unsupported discriminant {D}")
    return character_group(-D)[euler_phi(-D) // 2]


@lru_cache(maxsize=None)
def character_group(m: int) -> tuple[DirichletCharacter, ...]:
    """All phi(m) characters mod m, chi_c^j at position j."""
    if m not in GENERATORS:
        raise InvalidArgumentError(f"unsupported modulus {m}")
    return tuple(DirichletCharacter(m, j) for j in range(euler_phi(m)))
