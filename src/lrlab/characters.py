"""Dirichlet characters for the moduli {3, 4, 5, 7, 23, 691}.

Characters on these (cyclic) unit groups are stored as discrete-log exponent
tables plus a root-of-unity index: chi(g^a) = exp(2*pi*i * j * a / phi(m))
for a fixed generator g and character index j.  Powers of a character cost an
index multiplication, and every value is produced from angle arithmetic at
full binary64 accuracy rather than by accumulated complex multiplication.

Fixed generators: 2 mod 3, 3 mod 4, 2 mod 5, 3 mod 7, 5 mod 23, 3 mod 691.
The mod-5 characters of interest are chi_c with chi_c(2) = i (index 1) and
chi_5 with chi_5(2) = -1 (index 2); mod 691 the generator character has
chi_c(3) = exp(2*pi*i/690).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .primes import euler_phi, kronecker_symbol, multiplicative_order

__all__ = [
    "DirichletCharacter",
    "kronecker_character",
    "generator_character",
    "character_group",
    "GENERATORS",
]

GENERATORS = {3: 2, 4: 3, 5: 2, 7: 3, 23: 5, 691: 3}

_SUPPORTED_KRONECKER = (-3, -4, -7, -23)


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod m with a full value table.

    ``values[r]`` is chi(r) for r = 0 .. m-1 (zero off the unit group).
    """

    modulus: int
    values: np.ndarray
    order: int
    principal: bool
    label: str
    _dlog: np.ndarray | None = field(default=None, repr=False)
    _index: int | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values.flags.writeable = False

    def __call__(self, n: int) -> complex:
        return complex(self.values[int(n) % self.modulus])

    @property
    def parity(self) -> int:
        """chi(-1), +1 for even characters and -1 for odd ones."""
        v = self.values[self.modulus - 1] if self.modulus > 2 else self.values[0]
        return int(round(v.real))

    @property
    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.values.imag)) < 1e-15)

    def power(self, j: int) -> "DirichletCharacter":
        if self._dlog is None or self._index is None:
            raise InvalidArgumentError("power() requires a generator-based character")
        m = self.modulus
        return generator_character(m, GENERATORS[m], (self._index * j) % euler_phi(m))

    def conjugate(self) -> "DirichletCharacter":
        if self._dlog is not None and self._index is not None:
            phi = euler_phi(self.modulus)
            return generator_character(self.modulus, GENERATORS[self.modulus], (-self._index) % phi)
        out = DirichletCharacter(
            self.modulus, self.values.conj(), self.order, self.principal, self.label + "~"
        )
        return out

    def same_values(self, other: "DirichletCharacter", tol: float = 1e-12) -> bool:
        return (
            self.modulus == other.modulus
            and bool(np.max(np.abs(self.values - other.values)) <= tol)
        )


@lru_cache(maxsize=None)
def _dlog_table(m: int, g: int) -> tuple:
    """Discrete logs base g mod m; -1 marks residues off the unit group."""
    phi = euler_phi(m)
    if math.gcd(g, m) != 1 or multiplicative_order(g, m) != phi:
        raise InvalidArgumentError(f"{g} does not generate (Z/{m}Z)^*")
    dlog = np.full(m, -1, dtype=np.int64)
    a, x = 0, 1
    while True:
        dlog[x] = a
        a += 1
        x = x * g % m
        if x == 1:
            break
    if a != phi:
        raise InvalidArgumentError(f"{g} does not generate (Z/{m}Z)^*")
    dlog.flags.writeable = False
    return (dlog, phi)


@lru_cache(maxsize=None)
def generator_character(m: int, g: int, root_index: int) -> DirichletCharacter:
    """Character determined by chi(g) = exp(2*pi*i*root_index/phi(m))."""
    dlog, phi = _dlog_table(m, g)
    root_index %= phi
    values = np.zeros(m, dtype=np.complex128)
    coprime = dlog >= 0
    angles = 2.0 * np.pi * ((root_index * dlog[coprime]) % phi) / phi
    values[coprime] = np.cos(angles) + 1j * np.sin(angles)
    order = phi // math.gcd(root_index, phi)
    return DirichletCharacter(
        modulus=m,
        values=values,
        order=order,
        principal=(root_index == 0),
        label=f"chi_c^{root_index} mod {m}" if root_index else f"principal mod {m}",
        _dlog=dlog,
        _index=root_index,
    )


@lru_cache(maxsize=None)
def kronecker_character(D: int) -> DirichletCharacter:
    """The real quadratic character chi_D(n) = (D|n) mod |D| for D in {-3,-4,-7,-23}."""
    if D not in _SUPPORTED_KRONECKER:
        raise InvalidArgumentError(f"unsupported discriminant {D}")
    m = abs(D)
    values = np.array(
        [0] + [kronecker_symbol(D, r) for r in range(1, m)], dtype=np.complex128
    )
    return DirichletCharacter(
        modulus=m, values=values, order=2, principal=False, label=f"chi_{{{D}}}"
    )


@lru_cache(maxsize=None)
def character_group(m: int) -> tuple[DirichletCharacter, ...]:
    """All phi(m) characters mod m as powers of a fixed generator character."""
    if m not in GENERATORS:
        raise InvalidArgumentError(f"unsupported modulus {m}")
    g = GENERATORS[m]
    return tuple(generator_character(m, g, j) for j in range(euler_phi(m)))
