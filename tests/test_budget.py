"""csum must return exactly the float math.fsum returns, raise what it raises,
and sum an array without copying it; ValueWithBudget arithmetic must bound the
exact result of every operation."""

import math
import operator
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.budget import ValueWithBudget, csum

# Sizes on both sides of 3,000 terms and of 2^16 terms a block, where a
# faster exact sum would switch paths or passes; csum must match fsum at each.
LENGTHS = (0, 1, 2, 2999, 3000, 3001, 65535, 65536, 65537, 131089)

TINY = 2.2250738585072014e-308  # smallest normal float

ATOMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-TINY, max_value=TINY),  # subnormals and signed zeros
    st.builds(
        math.ldexp,
        # open interval: ldexp(+-1.0, 1024) is not a float and raises while drawing
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(-1074, -990) | st.integers(990, 1024),  # exponents near +-1000
    ),
    st.floats(min_value=-1e3, max_value=1e3),
)


def outcome(fn, terms):
    """The result's bit pattern, or the type of the exception raised."""
    try:
        return struct.pack("<d", fn(terms))
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def term_arrays(draw):
    n = draw(st.sampled_from(LENGTHS))
    atoms = np.array(draw(st.lists(ATOMS, min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(atoms, n) * rng.choice([-1.0, 1.0], n)
    if n and draw(st.booleans()):
        # exact cancellation: the second half negates the first, then shuffle
        half = x[: n // 2]
        x[n - len(half) :] = -half
        rng.shuffle(x)
    return x


@settings(max_examples=150, deadline=None)
@given(term_arrays())
def test_csum_matches_fsum_bit_for_bit(x):
    assert outcome(csum, x) == outcome(math.fsum, x)


@settings(max_examples=40, deadline=None)
@given(term_arrays(), st.sampled_from([math.inf, -math.inf, math.nan]), st.integers(0, 2**31))
def test_non_finite_terms_match_fsum(x, bad, where):
    x = np.append(x, bad)
    x[[where % len(x), -1]] = x[[-1, where % len(x)]]
    got, want = outcome(csum, x), outcome(math.fsum, x)
    if isinstance(want, bytes) and math.isnan(struct.unpack("<d", want)[0]):
        assert isinstance(got, bytes) and math.isnan(struct.unpack("<d", got)[0])
    else:
        assert got == want


@settings(max_examples=20, deadline=None)
@given(term_arrays())
def test_generator_and_strided_inputs(x):
    want = outcome(math.fsum, x)
    assert outcome(csum, (t for t in x.tolist())) == want
    assert outcome(csum, x.tolist()) == want
    doubled = np.repeat(x, 2)
    doubled[1::2] = 0.5
    assert outcome(csum, doubled[0::2]) == want  # non-contiguous view


def test_inf_minus_inf_raises_like_fsum():
    x = np.ones(6000)
    x[3], x[-2] = math.inf, -math.inf
    with pytest.raises(ValueError):
        math.fsum(x)
    with pytest.raises(ValueError):
        csum(x)


@pytest.mark.parametrize(
    "x",
    [
        np.full(196608, 5e-324),  # many copies of the smallest subnormal
        np.concatenate([[1.0], np.full(65536, 2.0**-60), [2.0**-53]]),  # rounding set by the tail
        np.full(65541, -0.0),  # exact zero: the sign of fsum's zero
        np.full(65536, 1.7976931348623157e308),  # overflow
    ],
)
def test_edge_sums(x):
    assert outcome(csum, x) == outcome(math.fsum, x)


def test_array_is_summed_without_a_copy():
    # 1e5 float64 terms as a list of Python floats would take 3.2 MB
    x = np.random.default_rng(1).random(100_000)
    tracemalloc.start()
    try:
        csum(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


# --- ValueWithBudget ----------------------------------------------------------

VALUES = st.floats(min_value=-1e150, max_value=1e150) | st.floats(min_value=-2.0, max_value=2.0)
BUDGETS = st.just(0.0) | st.floats(min_value=0.0, max_value=1e-3) | st.floats(min_value=0.0, max_value=1e140)
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _ends(value: float, budget: float) -> list:
    """Where the true value may lie: the ends and the middle of [value - budget, value + budget].

    Sums, products and quotients are monotone in each operand, so the worst
    exact result over two such intervals is at a pair of ends.
    """
    v, b = Fraction(value), Fraction(budget)
    return [v - b, v, v + b]


@settings(max_examples=400, deadline=None)
@given(VALUES, BUDGETS, VALUES, BUDGETS, st.sampled_from(["budgeted", "plain", "plain-left"]))
def test_budget_covers_the_exact_result(x, bx, y, by, kind):
    a = ValueWithBudget(x, bx)
    b = ValueWithBudget(y, by) if kind == "budgeted" else y
    ys = _ends(y, by) if kind == "budgeted" else [Fraction(y)]
    for op in OPS:
        if op is operator.truediv and (kind == "plain-left" or min(ys) <= 0 <= max(ys)):
            continue
        result = op(b, a) if kind == "plain-left" else op(a, b)
        if not (math.isfinite(result.value) and math.isfinite(result.budget)):
            continue
        for xt in _ends(x, bx):
            for yt in ys:
                exact = op(yt, xt) if kind == "plain-left" else op(xt, yt)
                assert abs(Fraction(result.value) - exact) <= Fraction(result.budget), (op, x, bx, y, by)


def test_plain_operands_add_their_rounding():
    # 1 + 2^-60 rounds to 1: the budget must hold the lost 2^-60
    v = ValueWithBudget(2.0**-60, 0.0) + 1.0
    assert v.value == 1.0 and v.budget >= 2.0**-60
    third = ValueWithBudget(1.0, 0.0) / 3
    assert abs(Fraction(third.value) - Fraction(1, 3)) <= Fraction(third.budget)
    assert third.budget <= 2 * math.ulp(1 / 3)
