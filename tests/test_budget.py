"""math.fsum, which the package's sums use, must sum an array without copying
it; ValueWithBudget arithmetic must bound the exact result of every operation."""

import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab.budget import ValueWithBudget


def test_array_is_summed_without_a_copy():
    # 1e5 float64 terms as a list of Python floats would take 3.2 MB
    x = np.random.default_rng(1).random(100_000)
    tracemalloc.start()
    try:
        math.fsum(x)
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
