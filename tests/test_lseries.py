import functools
import math

import mpmath as mp
import numpy as np
import pytest

from lrlab.budget import ValueWithBudget
from lrlab.characters import character_group, generator_character, kronecker_character
from lrlab.errors import InvalidArgumentError, PreconditionError
from lrlab.lseries import (
    GAMMA_K_MAX,
    _em_remainder_bound,
    _gamma_batch,
    closed_form_l_values,
    euler_gamma_value,
    gamma_k,
    l_derivative_at_1,
    l_value,
    zeta_value,
)
from lrlab.primes import sieve_primes
from scalar_reference import character_values
from sieve_reference import prime_log_sum, prime_tail_bound

mp.mp.dps = 30


@functools.lru_cache(maxsize=None)
def _stieltjes(n, r, m):
    return mp.stieltjes(n, mp.mpf(r) / m)


def gamma_k_reference(r, m, k):
    """Independent oracle via generalized Stieltjes constants: from
    m^-s zeta(s, r/m) = 1/(m(s-1)) + sum_k (-1)^k gamma_k(r, m) (s-1)^k / k!,
    gamma_k(r, m) = (-1)^k k!/m [(-log m)^(k+1)/(k+1)!
                     + sum_{n<=k} (-1)^n gamma_n(r/m) (-log m)^(k-n)/(n! (k-n)!)].
    """
    neg_log = -mp.log(m)
    total = neg_log ** (k + 1) / mp.factorial(k + 1)
    for n in range(k + 1):
        total += (-1) ** n * _stieltjes(n, r, m) * neg_log ** (k - n) / (mp.factorial(n) * mp.factorial(k - n))
    return (-1) ** k * mp.factorial(k) / m * total


def l_reference(m, chi_values, k):
    return (-1) ** k * mp.fsum(
        chi_values[r] * gamma_k_reference(r, m, k) for r in range(1, m)
    )


class TestValueWithBudget:
    def test_linear_propagation(self):
        a = ValueWithBudget(2.0, 0.1)
        b = ValueWithBudget(3.0, 0.2)
        assert (a + b).budget == pytest.approx(0.3)
        assert (a - b).value == -1.0
        assert (2.0 * a).budget == pytest.approx(0.2)
        # a plain operand is exact; the sum's own rounding is one ulp of 3
        assert a.budget < (a + 1.0).budget <= a.budget + 2 * math.ulp(3.0)

    def test_product_quotient_bounds(self):
        a = ValueWithBudget(2.0, 0.1)
        b = ValueWithBudget(4.0, 0.2)
        prod = a * b
        # worst case: (2.1)(4.2) - 8 = 0.82
        assert prod.budget == pytest.approx(0.1 * 4 + 0.2 * 2 + 0.02)
        quot = a / b
        assert abs((2.1 / 3.8) - 0.5) <= quot.budget

    def test_agreement(self):
        assert ValueWithBudget(1.0, 0.05).agrees_with(ValueWithBudget(1.08, 0.04))
        assert not ValueWithBudget(1.0, 0.01).agrees_with(ValueWithBudget(1.08, 0.01))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ValueWithBudget(1.0, -1e-9)


class TestGammaK:
    def test_euler_constant(self):
        g = gamma_k(0, 1, 0)
        assert g.value == pytest.approx(0.5772156649015329, abs=1e-12)
        assert abs(g.value - 0.5772156649015329) <= g.budget

    def test_partition_identity_m3(self):
        total = sum(gamma_k(r, 3, 0).value for r in (1, 2, 3))
        assert total == pytest.approx(euler_gamma_value().value, abs=1e-12)

    def test_stieltjes_gamma1(self):
        g1 = gamma_k(0, 1, 1)
        assert g1.value == pytest.approx(-0.0728158454836767, abs=1e-10)

    def test_against_stieltjes_oracle(self):
        for m in (3, 4, 5, 7, 23):
            for r in range(1, m + 1):
                for k in (0, 1):
                    ours = gamma_k(r, m, k)
                    ref = float(gamma_k_reference(r, m, k))
                    assert ours.value == pytest.approx(ref, abs=1e-12), (m, r, k)
                    assert abs(ours.value - ref) <= ours.budget

    @pytest.mark.parametrize("k", range(GAMMA_K_MAX + 1))
    def test_stieltjes_constants_within_budget(self, k):
        # every derivative order the kernel serves, against the Stieltjes constants
        ours = gamma_k(0, 1, k)
        assert abs(ours.value - mp.stieltjes(k)) <= ours.budget, k

    @pytest.mark.parametrize("m", [3, 4, 5, 7, 23])
    def test_small_moduli_within_budget(self, m):
        for k in range(5):
            for r in range(1, m + 1):
                ours = gamma_k(r, m, k)
                assert abs(ours.value - gamma_k_reference(r, m, k)) <= ours.budget, (m, r, k)

    def test_mod_691_within_budget(self):
        for r in range(1, 692, 36):  # 20 residues, 685 the last
            for k in range(3):
                ours = gamma_k(r, 691, k)
                assert abs(ours.value - gamma_k_reference(r, 691, k)) <= ours.budget, (r, k)

    def test_order_out_of_range(self):
        for k in (-1, GAMMA_K_MAX + 1):
            with pytest.raises(InvalidArgumentError):
                gamma_k(1, 5, k)

    @pytest.mark.parametrize("k", range(GAMMA_K_MAX + 1))
    def test_stieltjes_budgets_are_tight(self, k):
        # a budget means something: small against the constant, and within
        # 10^3 of the actual error
        ours = gamma_k(0, 1, k)
        err = abs(ours.value - mp.stieltjes(k))
        assert ours.budget <= 1e-3 * abs(ours.value), k
        assert ours.budget <= 1e3 * err, (k, ours.budget, err)

    def test_partition_identity_all_moduli(self):
        g = euler_gamma_value().value
        for m in (3, 4, 5, 7, 23, 691):
            total = math.fsum(gamma_k(r, m, 0).value for r in range(1, m + 1))
            assert abs(total - g) <= 1e-10, m

    def test_residue_normalization(self):
        # r = 0 is the class of multiples of m, same as r = m
        assert gamma_k(0, 7, 0).value == gamma_k(7, 7, 0).value

    def test_bad_residue(self):
        with pytest.raises(InvalidArgumentError):
            gamma_k(9, 7, 0)

    @pytest.mark.parametrize("args", [(1, 2.5), (1.5, 5), (1, 5, 0.5), (1, 5.0)])
    def test_non_integer_arguments(self, args):
        # rejected before a batch is built (and cached) for a meaningless progression
        misses = _gamma_batch.cache_info().misses
        with pytest.raises(InvalidArgumentError):
            gamma_k(*args)
        assert _gamma_batch.cache_info().misses == misses


class TestLDerivative:
    def test_against_oracle_all_small_moduli(self):
        for d in (-3, -4, -7, -23):
            chi = kronecker_character(d)
            vals = [int(v.real) for v in character_values(abs(d), chi.index)]
            for k in (0, 1):
                ours = l_derivative_at_1(chi, k)
                ref = float(l_reference(abs(d), vals, k))
                assert ours.value.real == pytest.approx(ref, abs=1e-11), (d, k)
                assert abs(ours.value.imag) <= 1e-14

    def test_complex_character_oracle(self):
        chi = generator_character(5, 1)
        vals = character_values(5, chi.index)
        for k in (0, 1):
            ours = l_derivative_at_1(chi, k).value
            ref = complex(
                (-1) ** k
                * mp.fsum(
                    mp.mpc(vals[r]) * gamma_k_reference(r, 5, k) for r in range(1, 5)
                )
            )
            assert ours.real == pytest.approx(ref.real, abs=1e-12)
            assert ours.imag == pytest.approx(ref.imag, abs=1e-12)

    def test_conjugate_symmetry(self):
        chi = generator_character(23, 3)
        for k in (0, 1):
            a = l_derivative_at_1(chi, k).value
            b = l_derivative_at_1(generator_character(23, -chi.index), k).value
            assert b == pytest.approx(a.conjugate(), abs=1e-14)

    def test_closed_form_agreement(self):
        pairs = [
            (kronecker_character(-7), "chi_minus7"),
            (kronecker_character(-23), "chi_minus23"),
            (generator_character(5, 2), "chi5"),
        ]
        for chi, tag in pairs:
            num = l_derivative_at_1(chi, 0).value.real
            assert abs(num - closed_form_l_values(tag)) <= 1e-8
        lc = l_derivative_at_1(generator_character(5, 1), 0)
        pair = (lc * lc.conjugate()).value.real
        assert abs(pair - closed_form_l_values("chi_c_pair_mod5")) <= 1e-8

    def test_closed_form_examples(self):
        assert closed_form_l_values("chi_minus7") == pytest.approx(1.18741, abs=1e-5)
        assert closed_form_l_values("chi5") == pytest.approx(0.430409, abs=1e-6)
        assert closed_form_l_values("chi_c_pair_mod5") == pytest.approx(0.789568, abs=1e-6)

    def test_principal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            l_derivative_at_1(character_group(5)[0], 0)

    def test_unknown_closed_form(self):
        with pytest.raises(InvalidArgumentError):
            closed_form_l_values("chi42")


class TestPrimeLogSum:
    def test_tail_bound_example(self):
        # x/(x^2-1) * (-0.98 + 2.034) at x = 1e6
        b = prime_tail_bound(2, 10**6)
        assert b == pytest.approx(10**6 / (10**12 - 1) * 1.054, rel=1e-12)
        assert b == pytest.approx(1.054e-6, rel=1e-3)

    def test_all_primes_k2_matches_zeta(self):
        s = prime_log_sum(None, 2, 10**6)
        z = zeta_value(2, 1) / zeta_value(2)
        assert abs(s.value - (-z.value)) <= s.budget + z.budget
        assert s.value == pytest.approx(0.569961, abs=2e-6)

    def test_class_sum_against_direct_loop(self):
        cutoff = 20000
        s = prime_log_sum(sieve_primes(cutoff).primes % 3 == 2, 2, cutoff)
        direct = math.fsum(
            math.log(p) / (p**2 - 1)
            for p in sieve_primes(cutoff).primes.tolist()
            if p % 3 == 2
        )
        assert s.value == pytest.approx(direct, abs=1e-15)

    def test_tail_soundness(self):
        # |S(1e7) - S(1e6)| <= bound at 1e6, per class
        for q, r in ((1, 0), (4, 3), (3, 2)):
            s6 = prime_log_sum(sieve_primes(10**6).primes % q == r, 2, 10**6)
            s7 = prime_log_sum(sieve_primes(10**7).primes % q == r, 2, 10**7)
            assert abs(s7.value - s6.value) <= prime_tail_bound(2, 10**6)

    def test_rigorous_cutoff_precondition(self):
        with pytest.raises(PreconditionError):
            prime_log_sum(None, 2, 5000)

    @pytest.mark.parametrize("k", [2, 3, 345, 689, 690, 691])
    def test_large_exponents_without_float_exceptions(self, k):
        # p^k overflows binary64 and p^(-k) underflows for large k; neither
        # may be computed.  Against 30-digit sums at cutoff 2e4, within the
        # rounding share of the budget.
        cutoff = 20000
        with np.errstate(all="raise"):
            s = prime_log_sum(None, k, cutoff)
            tail = prime_tail_bound(k, float(cutoff))
            deep = prime_log_sum(None, k, 10**7)
            assert prime_tail_bound(k, 1e7) >= 0.0
        with mp.workdps(30):
            primes = sieve_primes(cutoff).primes.tolist()
            exact = mp.fsum(mp.log(p) / (mp.mpf(p) ** k - 1) for p in primes)
            x = mp.mpf(cutoff)
            exact_tail = x / (x**k - 1) * (-mp.mpf("0.98") + mp.mpf("1.017") * k / (k - 1))
        assert abs(s.value - float(exact)) <= s.budget - tail
        assert s.value == pytest.approx(float(exact), rel=1e-14)
        assert tail == pytest.approx(float(exact_tail), rel=1e-13)
        assert abs(deep.value - s.value) <= s.budget


class TestZetaLogDerivative:
    def test_value_against_reference(self):
        ref = mp.zeta(2, derivative=1) / mp.zeta(2)
        z = zeta_value(2, 1) / zeta_value(2)
        assert abs(z.value - ref) <= z.budget
        # no theta interval: the budget is rounding only
        assert z.budget <= 1e-14

    def test_zeta_real(self):
        assert abs(zeta_value(2.0).value - mp.pi**2 / 6) <= zeta_value(2.0).budget
        assert abs(zeta_value(3.0).value - mp.zeta(3)) <= zeta_value(3.0).budget


class TestDirichletSeries:
    """zeta(s) and L(s, chi) at real s > 1 from the Euler-Maclaurin kernel."""

    @pytest.mark.parametrize("s", [2, 3, 4, 2.5, 7])
    def test_zeta_values(self, s):
        for k in (0, 1, 2):
            v = zeta_value(s, k)
            assert abs(v.value - mp.zeta(s, 1, k)) <= v.budget, (s, k)
            assert v.budget <= 1e-14

    @pytest.mark.parametrize("m", [3, 4, 5, 7, 23])
    def test_l_values_within_budget(self, m):
        # every character, principal included, at s = 2 and 3: L^(k)(s, chi) =
        # sum_r chi(r) d^k/ds^k [m^-s zeta(s, r/m)], from Hurwitz zeta values
        for s in (2, 3):
            hz = [(mp.zeta(s, mp.mpf(r) / m), mp.zeta(s, mp.mpf(r) / m, 1)) for r in range(1, m)]
            terms = [
                [z / mp.mpf(m) ** s for z, _ in hz],
                [(dz - mp.log(m) * z) / mp.mpf(m) ** s for z, dz in hz],
            ]
            for chi in character_group(m):
                values = character_values(m, chi.index)
                for k in (0, 1):
                    ours = l_value(chi, s, k)
                    ref = mp.fsum(complex(values[r]) * t for r, t in enumerate(terms[k], 1))
                    assert abs(ours.value - ref) <= ours.budget, (m, chi.index, s, k)

    def test_l_value_at_2_matches_quadratic_reference(self):
        chi = kronecker_character(-3)
        v = l_value(chi, 2.0)
        ref = l_reference_at_2(3, [0, 1, -1])
        assert abs(v.value - ref) <= v.budget

    def test_l_value_domain(self):
        # at s = 1 the table row comes from the gamma_k batch, and its
        # principal entry is not an L-value
        for chi in character_group(5):
            for s in (1, 0.5):
                with pytest.raises(PreconditionError):
                    l_value(chi, s)

    def test_order_and_domain(self):
        for s in (1, 0.5, math.inf, math.nan):
            with pytest.raises(PreconditionError):
                zeta_value(s)
        with pytest.raises(InvalidArgumentError):
            zeta_value(2, GAMMA_K_MAX + 1)


class TestRemainderBound:
    """The Euler-Maclaurin remainder bound alone, against the true remainder
    of the same formula (T = 40 direct terms, K = 7 corrections) at 40 digits."""

    T, K = 40, 7

    @classmethod
    def true_remainder(cls, k, m, r, s):
        u0 = mp.mpf(r + cls.T * m)

        def h(u):
            return mp.log(u) ** k * u ** -s

        if s == 1:
            # the regularized tail sum_{t>=0} h(U + t m) is the Laurent
            # constant of m^-s zeta(s, U/m), whose series starts at n = U
            tail = gamma_k_reference(r + cls.T * m, m, k)
            integral = -mp.log(u0) ** (k + 1) / (m * (k + 1))
        else:
            # (-1)^k d^k/ds^k [m^-s zeta(s, U/m)]
            tail = (-1) ** k * mp.fsum(
                mp.binomial(k, i) * (-mp.log(m)) ** (k - i) * mp.zeta(s, u0 / m, i) for i in range(k + 1)
            ) / mp.mpf(m) ** s
            # int_U^oo log^k u u^-s du = Gamma(k + 1, (s - 1) log U)/(s - 1)^(k + 1)
            integral = mp.gammainc(k + 1, (s - 1) * mp.log(u0)) / (s - 1) ** (k + 1) / m
        corrections = mp.fsum(
            mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.mpf(m) ** (2 * j - 1) * mp.diff(h, u0, 2 * j - 1)
            for j in range(1, cls.K + 1)
        )
        return tail - (integral + h(u0) / 2 - corrections)

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("m", [1, 23])
    @pytest.mark.parametrize("k", [0, 2, 6, 12])
    def test_bound_covers_the_true_remainder(self, k, m, s):
        for r in sorted({1, m}):
            u = np.array([r + self.T * m], dtype=np.float64)
            bound = _em_remainder_bound(u, np.log(u), k, m, s)[0]
            with mp.workdps(40):
                exact = self.true_remainder(k, m, r, s)
            assert abs(exact) <= bound, (k, m, r, s, exact, bound)
            assert bound <= 1e-13


def l_reference_at_2(m, chi_values):
    # L(2, chi) via Hurwitz zeta
    return mp.fsum(
        chi_values[r] * mp.zeta(2, mp.mpf(r) / m) for r in range(1, m)
    ) / m**2


class TestQ691Reality:
    def test_character_sums_real(self):
        from lrlab.constants import b691_character_sums

        odd, even = b691_character_sums()
        assert abs(odd.value.imag) <= 1e-8
        assert abs(even.value.imag) <= 1e-8
