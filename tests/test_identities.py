import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from lrlab.characters import _dlog_table, euler_phi
from lrlab.errors import InvalidArgumentError, UnsupportedCaseError
from lrlab.constants import _class_sum
from lrlab.identities import euler_identity_sides, local_factor_gap, truncated_T
from lrlab.lseries import _log, zeta_value
from lrlab.multfn import CASES, M_ALWAYS, M_NEVER, CaseSpec, class_index, dirichlet_series_truncated, get_case
from lrlab.primes import sieve_primes
from lrlab.verify import CHECKS
from euler_reference import with_euler
from scalar_reference import character_values, f_prime_power, totient

# Every factorization row of the case table: (case, CaseSpec field)
FACTORIZATIONS = [
    ("two_squares", "euler"),
    ("q3", "euler"),
    ("q5", "euler"),
    ("q7", "euler"),
    ("q23", "euler"),
    ("q691", "euler"),
]


class TestEulerIdentities:
    @pytest.mark.parametrize("tag", ["q3", "q5", "q7", "q23", "two_squares"])
    def test_sides_agree_within_budgets(self, tag):
        lhs, rhs = euler_identity_sides(tag, 2, 10**5)
        assert abs(lhs.value - rhs.value) <= lhs.budget + rhs.budget, tag

    def test_sees_a_wrong_low_order_exponent(self, monkeypatch):
        # (-1, 2) -> (-2, 2) on q7's non-residues multiplies the right side by
        # prod_p (1 - p^-4)^-1 over them, about 1.014
        spec = get_case("q7")
        classes = list(spec.euler.classes)
        assert classes[2] == ((-1, 2),)
        classes[2] = ((-2, 2),)
        broken = with_euler(spec, replace(spec.euler, classes=tuple(classes)))
        monkeypatch.setitem(CASES, "q7", broken)
        lhs, rhs = euler_identity_sides("q7")
        assert abs(lhs.value - rhs.value) > 100 * (lhs.budget + rhs.budget)

    def test_gate_sees_a_wrong_high_order_factor(self, monkeypatch):
        # (-2, 23) -> (-2, 24) on q23's S3 (from p = 59) moves the s = 2 sides
        # by about 59^-46, far inside their budgets; the identity/euler-product
        # check fails on the local factors at x = 1/2 and 1/3
        spec = get_case("q23")
        classes = list(spec.euler.classes)
        assert classes[2] == ((2, 22), (-2, 23))
        classes[2] = ((2, 22), (-2, 24))
        broken = with_euler(spec, replace(spec.euler, classes=tuple(classes)))
        monkeypatch.setitem(CASES, "q23", broken)
        lhs, rhs = euler_identity_sides("q23")
        assert abs(lhs.value - rhs.value) <= lhs.budget + rhs.budget
        # q23's identity rows of the verification gate
        rows = [(name, check) for case, name, check in CHECKS if case == "q23" and name.startswith("identity/")]
        ((name, check),) = rows
        passed, detail = check()
        assert name == "identity/euler-product" and not passed, detail

    def test_q3_forms_agree(self):
        # the zeta(2s)^-2 rewrite of q3's factorization moves (1 - p^-2s)^2 over
        # every prime into zeta(2s)^-2, so at s = 2 it gives the same right side
        # iff sum_p -log(1 - p^-4), over the classes mod 3, is log zeta(4)
        spec = get_case("q3")
        every_prime = sum(_class_sum(spec, j, 4, 0) for j in range(len(spec.m0)))
        assert every_prime.agrees_with(_log(zeta_value(4)))

    def test_budgets_are_sound_for_T(self):
        # deepening the truncation moves T by less than the shallow budget
        t1 = truncated_T("q3", 2.0, 10**4)
        t2 = truncated_T("q3", 2.0, 10**5)
        assert abs(t1.value - t2.value) <= t1.budget

    def test_unknown_case(self):
        with pytest.raises(UnsupportedCaseError):
            euler_identity_sides("q2")


class TestLocalFactors:
    @pytest.mark.parametrize("tag, form", FACTORIZATIONS)
    def test_every_class_matches_its_local_factor(self, tag, form):
        # n log T_p(x) against the log of the right side's local factor at p,
        # x standing for p^-s.  B_f sees only the products c a; this sees each (c, a).
        spec = get_case(tag)
        euler = getattr(spec, form)
        primes = sieve_primes(10**4)  # q691's classes of order 1 and 3 start at 6911, 4583
        idx = class_index(tag, 10**4)
        samples = {int(p): int(j) for j in range(len(spec.m0)) for p in primes[idx == j][:4]}
        assert set(samples.values()) == set(range(len(spec.m0)))
        m = euler.modulus
        # (values, weight): a complex chi^j comes with its conjugate, so its weight is 2e
        characters = [
            (character_values(m, j), e if 2 * j % totient(m) == 0 else 2 * e) for j, e in euler.l_exponents
        ]
        for p, j in samples.items():
            f_p = [f_prime_power(tag, p, k) for k in range(200)]
            for x in (1 / 2, 1 / 3):
                t_p = math.fsum(f * x**k for k, f in enumerate(f_p))
                lhs = euler.n * math.log(t_p)
                terms = [-float(euler.n * spec.tau) * math.log1p(-x)]
                for chi, weight in characters:
                    terms.append(-weight * cmath.log(1 - chi[p % m] * x).real)
                for c, a in euler.classes[j]:
                    terms.append(c * math.log1p(-(x**a)))
                assert lhs == pytest.approx(math.fsum(terms), abs=1e-12), (tag, form, p, x)


def local_factor_gap_reference(case, x, p_limit=10**4):
    """local_factor_gap with log |1 - chi^j(p) x| evaluated for every (p, j)
    on its own, not read from a table over the phi residues."""
    spec = get_case(case)
    euler = spec.euler
    p = sieve_primes(p_limit)
    idx = class_index(spec, p_limit)
    m0 = spec._m0s[idx]
    finite_m0 = np.where(m0 >= 2, m0, 2)
    log_1mx = math.log1p(-x)
    log_t = np.where(
        m0 == M_NEVER,
        -log_1mx,
        np.log1p(-(x ** (finite_m0 - 1))) - log_1mx - np.log1p(-(x**finite_m0)),
    )
    log_t[m0 == M_ALWAYS] = 0.0
    m = euler.modulus
    phi = euler_phi(m)
    j, w = np.array(euler.l_weights(), dtype=np.int64).reshape(-1, 2).T
    dlog = _dlog_table(m)[p % m]
    angle = 2.0 * np.pi * ((np.outer(dlog, j) % phi) / phi)
    log_l = 0.5 * np.log1p(x * (x - 2.0 * np.cos(angle)))
    log_l[dlog < 0] = 0.0
    rhs = -float(euler.n * spec.tau) * log_1mx - log_l @ w
    for k, factor in enumerate(euler.classes):
        rhs[idx == k] += sum(c * math.log1p(-(x**a)) for c, a in factor)
    return float(np.max(np.abs(euler.n * log_t - rhs)))


class TestLocalFactorGap:
    @pytest.mark.parametrize("inv_x", [2.0, 3.0])
    @pytest.mark.parametrize("tag", ["two_squares", "q3", "q5", "q7", "q23", "q691"])
    def test_every_row(self, tag, inv_x):
        # an identity of power series, checked at x = 1/2 and 1/3
        assert local_factor_gap(tag, 1 / inv_x, 10**4) <= 1e-10, tag

    @pytest.mark.parametrize("inv_x", [2.0, 3.0])
    @pytest.mark.parametrize("tag", ["two_squares", "q3", "q5", "q7", "q23", "q691"])
    def test_tabulated_logs_equal_the_direct_ones(self, tag, inv_x):
        # the phi tabulated logs, gathered, give the gap bit for bit
        assert local_factor_gap(tag, 1 / inv_x) == local_factor_gap_reference(tag, 1 / inv_x), tag

    def test_sees_a_wrong_exponent(self, monkeypatch):
        spec = get_case("q691")
        exponents = ((1, -1),) + spec.euler.l_exponents[1:]  # L(s, chi^1) has exponent +1
        broken = with_euler(spec, replace(spec.euler, l_exponents=exponents))
        monkeypatch.setitem(CASES, "q691", broken)
        assert local_factor_gap("q691", 0.5, 100) > 0.1

    def test_sees_a_wrong_high_order_factor(self, monkeypatch):
        # (-345, 2) -> (-344, 2) on the order-2 class (p = -1 mod 691, from
        # 1381): at x = p^-2 it moves the gap by under 3e-13, at x = 1/2 by log(4/3)
        spec = get_case("q691")
        classes = list(spec.euler.classes)
        assert classes[1] == ((-345, 2),)
        classes[1] = ((-344, 2),)
        broken = with_euler(spec, replace(spec.euler, classes=tuple(classes)))
        monkeypatch.setitem(CASES, "q691", broken)
        for x in (1 / 2, 1 / 3):
            assert local_factor_gap("q691", x, 10**4) > 1e-9

    def test_unknown_case(self):
        with pytest.raises(UnsupportedCaseError):
            local_factor_gap("q2")

    @pytest.mark.parametrize("x", [0.5, 1 / 3])
    def test_a_factorization_without_an_l_factor(self, x):
        # f = 1 on every prime power mod 3: T is zeta, with no L-factor, whose
        # empty exponent list once ended in a bare ValueError
        spec = CaseSpec("ones3", (0, 1, 1), (M_NEVER, M_NEVER))
        assert spec.euler.l_exponents == ()
        assert local_factor_gap(spec, x) == 0.0

    @pytest.mark.parametrize("x", [1.5, -1.0, 0.0, 1.0, math.nan])
    def test_x_outside_the_unit_interval_is_invalid(self, x):
        with pytest.raises(InvalidArgumentError):
            local_factor_gap("q5", x)


class TestTruncatedSeries:
    def test_T_truncation_consistent_with_direct_sum(self):
        t = truncated_T("q7", 2.0, 2000)
        assert t.value == dirichlet_series_truncated("q7", 2.0, 2000)
        assert t.budget >= 2000.0**-1.0  # integral tail bound at s = 2
