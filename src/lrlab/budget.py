"""Error-budgeted values.

Every numerical result that is not exact carries an absolute error bound
("budget") along with it.  For complex values the budget bounds the modulus
of the error, which in particular bounds each component.  Budgets combine
additively under addition/subtraction and by first-order bounds under
multiplication and division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ValueWithBudget", "csum"]

# Below this many terms math.fsum is as fast as the bucketed exact sum or
# faster.  On the package's prime sums the bucketed sum costs about 60 us
# plus 10-15 ns a term, fsum over a list 40-45 ns a term; the two cross
# between 2,000 and 3,000 terms.  The gamma_k rows (40 to 103 terms for
# k <= 2) stay below it and go to fsum; the bucketed path serves the prime
# sums.
_BUCKET_MIN_TERMS = 3000
# Terms per bucketing pass.  With at most 2^16 terms a pass, the per-bucket
# sums of 26-bit mantissa halves stay below 2^42, exact in float64.
_BLOCK = 1 << 16
_LOW26 = np.uint64((1 << 26) - 1)


def csum(terms) -> float:
    """Exactly rounded sum of an iterable of floats: the same float as math.fsum.

    A 1-D float64 array of at least ``_BUCKET_MIN_TERMS`` terms is summed
    exactly in integer arithmetic.  Each term is ±M * 2^(E - 1075) with an
    integer significand M < 2^53 and E = max(biased exponent, 1).  Terms
    are bucketed by their top 12 bits (sign and biased exponent), and per
    bucket np.bincount takes three exact float64 counts: the number of
    terms (the implicit leading bit) and the sums of the high and low
    26-bit halves of the stored mantissa.  The total is rebuilt once as a
    Python int over the non-empty buckets and divided by 2^1075; int-by-int
    true division is correctly rounded.  Every other input goes to
    math.fsum, and so does an array that holds a non-finite term or whose
    terms are large enough that a partial sum might overflow (fsum decides
    the result or the error).  For an exact sum of zero, fsum picks the sign.
    """
    if not (isinstance(terms, np.ndarray) and terms.ndim == 1 and terms.dtype == np.float64):
        return math.fsum(terms)
    if len(terms) < _BUCKET_MIN_TERMS:
        return math.fsum(terms.tolist())
    count = np.zeros(4096, dtype=np.int64)
    high = np.zeros(4096, dtype=np.int64)
    low = np.zeros(4096, dtype=np.int64)
    for start in range(0, len(terms), _BLOCK):
        bits = terms[start : start + _BLOCK].view(np.uint64)
        key = (bits >> np.uint64(52)).view(np.int64)
        count += np.bincount(key, minlength=4096)
        high += np.bincount(key, (bits >> np.uint64(26)) & _LOW26, 4096).astype(np.int64)
        low += np.bincount(key, bits & _LOW26, 4096).astype(np.int64)
    if count[0x7FF] or count[0xFFF]:
        return math.fsum(terms)
    nonempty = np.flatnonzero(count != 0)
    total = magnitude = 0
    for b, n, h, lo in zip(
        nonempty.tolist(), count[nonempty].tolist(), high[nonempty].tolist(), low[nonempty].tolist()
    ):
        exp = b & 0x7FF
        m = (h << 26) + lo
        if exp:
            m += n << 52
        else:
            exp = 1  # subnormals: no implicit bit, exponent of the smallest normal
        total += -(m << exp) if b >> 11 else m << exp
        magnitude += n << exp  # sum |term| < magnitude * 2^-1022
    # fsum raises OverflowError when a partial sum overflows even if the total
    # would not; its partials stay within a hair of sum |term|, so below 2^1020
    # neither route can overflow.
    if magnitude > 1 << 2042:
        return math.fsum(terms)
    if not total:
        # The sign of an exact zero depends only on which kinds of term occur
        # (nonzero, +0.0, -0.0): let fsum decide it on one of each kind.
        zeros = terms == 0
        negative = np.signbit(terms[zeros])
        kinds = [1.0, -1.0] if not zeros.all() else []
        kinds += [0.0] if not negative.all() else []
        kinds += [-0.0] if negative.any() else []
        return math.fsum(kinds)
    return total / (1 << 1075)


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
        if self.budget < 0 or math.isnan(self.budget):
            raise ValueError(f"budget must be nonnegative, got {self.budget}")

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
