"""Error-budgeted values.

Every numerical result that is not exact carries an absolute error bound
("budget") along with it.  For complex values the budget bounds the modulus
of the error, which in particular bounds each component.  Budgets combine
additively under addition/subtraction and by first-order bounds under
multiplication and division.  The package sums floats with math.fsum,
which is exactly rounded (Shewchuk's adaptive-precision sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._args import shown
from .errors import InvalidArgumentError

__all__ = ["ValueWithBudget"]

_ETA = 5e-324  # smallest subnormal: twice the rounding of a product or quotient that underflows


def _up(x: float) -> float:
    """Round a budget upward so float evaluation stays conservative: a relative
    margin for the roundings in the normal range, and a few subnormal units for
    the absolute rounding of products and quotients that underflowed."""
    return x * (1.0 + 8e-16) + 4 * _ETA


def _rounding(result, a, b) -> float:
    """A bound for the rounding of one binary64 operation on a and b that gave
    ``result``: one ulp of |result|, which covers each component's half-ulp
    rounding, and four for a product or quotient of two non-real values,
    whose error is below sqrt(5) eps |result| (product) or a few eps (quotient).
    """
    both_complex = isinstance(a, complex) and a.imag and isinstance(b, complex) and b.imag
    return (4.0 if both_complex else 1.0) * math.ulp(abs(result))


def _value(v):
    return v.value if isinstance(v, ValueWithBudget) else v


def _result(value, budget: float, a=0.0, b=0.0) -> "ValueWithBudget":
    """value with the propagated budget plus its own rounding, rounded up;
    an infinite or undefined bound (an overflowed value, 0 * inf) is inf."""
    bound = _up(budget + _rounding(value, a, b))
    return ValueWithBudget(value, math.inf if math.isnan(bound) else bound)


@dataclass(frozen=True)
class ValueWithBudget:
    """A real or complex value with an absolute error bound.

    ``budget`` must be a nonnegative bound on ``|computed - true|``.
    Arithmetic adds the rounding of the computed value (_rounding) to the
    propagated bounds, and budget arithmetic rounds upward, so results stay
    sound in binary64.  A plain number operand is taken as exact.
    """

    value: complex
    budget: float

    def __post_init__(self):
        try:
            if self.budget >= 0:  # False for a negative or nan budget
                return
        except (TypeError, ValueError):  # a budget that is no number: a str, an array
            pass
        raise InvalidArgumentError(f"budget must be a nonnegative number, got {shown(self.budget)}")

    @property
    def real(self) -> "ValueWithBudget":
        return ValueWithBudget(self.value.real, self.budget)

    @property
    def imag(self) -> "ValueWithBudget":
        return ValueWithBudget(self.value.imag, self.budget)

    def conjugate(self) -> "ValueWithBudget":
        return ValueWithBudget(self.value.conjugate(), self.budget)

    def __neg__(self) -> "ValueWithBudget":
        return ValueWithBudget(-self.value, self.budget)

    def __add__(self, other) -> "ValueWithBudget":
        value = self.value + _value(other)
        return _result(value, self.budget + (other.budget if isinstance(other, ValueWithBudget) else 0.0))

    __radd__ = __add__

    def __sub__(self, other) -> "ValueWithBudget":
        return self + (-other if isinstance(other, ValueWithBudget) else -1 * other)

    def __rsub__(self, other) -> "ValueWithBudget":
        return (-self) + other

    def __mul__(self, other) -> "ValueWithBudget":
        a, b = self.value, _value(other)
        value = a * b
        if isinstance(other, ValueWithBudget):
            bud = abs(a) * other.budget + abs(b) * self.budget + self.budget * other.budget
        else:
            bud = abs(b) * self.budget
        return _result(value, bud, a, b)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ValueWithBudget":
        a, b = self.value, _value(other)
        value = a / b
        if isinstance(other, ValueWithBudget):
            if other.budget >= abs(b):
                return ValueWithBudget(value, math.inf)
            # |a/b - a'/b'| <= (|Δa| + |a/b||Δb|) / (|b| - |Δb|); the numerator
            # is rounded up first, so a small |b| - |Δb| cannot magnify its underflow
            bud = _up(self.budget + _up(abs(value)) * other.budget) / (abs(b) - other.budget)
        else:
            bud = self.budget / abs(b)
        return _result(value, bud, a, b)

    def agrees_with(self, other: "ValueWithBudget") -> bool:
        """True if the two intervals overlap (values agree within budgets)."""
        return abs(self.value - other.value) <= self.budget + other.budget

    def __format__(self, spec: str) -> str:
        spec = spec or ".10g"
        v = self.value
        if isinstance(v, complex) and v.imag != 0.0:
            sign = "+" if v.imag >= 0 else "-"
            body = f"{v.real:{spec}} {sign} {abs(v.imag):{spec}}i"
        else:
            body = f"{v.real if isinstance(v, complex) else v:{spec}}"
        return f"{body} ± {self.budget:.3g}"

    def __str__(self) -> str:
        return format(self)
