"""Prime sums over residue classes and the constants built on them.

Soundness: against 30-digit values of the same Moebius formula built
independently in mpmath (mobius_reference).  |computed - true| <= budget,
with the reference's own error bound counted against the budget: no slack.
K, the q5 constant and the a = 1 class sums must also be tight: each
budget within 10^3 times the observed error, floored at one ulp.
Cross-check: every class sum of the six cases with a >= 2 against the sieve
route to 1e7 with its theta tail (sieve_reference); the a = 1 sums, over
the primes that divide m, are finite.  Floating point: B_f, K, the q5
constant and the sieve route raise no overflow, underflow or invalid operation.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from lrlab import constants, lseries
from lrlab.constants import first_order_C5, landau_ramanujan_K
from lrlab.errors import InvalidArgumentError, PreconditionError
from lrlab.lseries import prime_class_sum, zeta_value
from lrlab.multfn import TABLE_CASES, class_index, get_case
from lrlab.primes import sieve_primes
from mobius_reference import reference
from sieve_reference import prime_log_sum, prime_partial_sum

SIEVE = 10**7


def assert_within(v, ref, ref_bound, what):
    """|v - ref| + ref_bound <= v.budget, the difference taken in 30 digits."""
    with mp.workdps(30):
        err = abs(mp.mpf(v.value) - ref) + ref_bound
        assert err <= v.budget, (what, v, float(err))


def assert_sound_and_tight(v, ref, ref_bound, what):
    """|v - ref| + ref_bound <= v.budget <= 1e3 max(|v - ref|, ulp(v))."""
    with mp.workdps(30):
        err = abs(mp.mpf(v.value) - ref)
        assert err + ref_bound <= v.budget, (what, v, float(err))
        assert v.budget <= 1e3 * max(float(err), math.ulp(v.value)), (what, v, float(err))


def residue_classes(tag):
    """(class j, its residues, exponents a) of every class of the case that is a union of residue classes."""
    spec = get_case(tag)
    for j, factor in enumerate(spec.euler.classes):
        if j not in spec.frobenius and factor:
            yield j, spec.class_residues(j), sorted({a for _, a in factor})


class TestSoundness:
    @pytest.mark.parametrize("m", [3, 4, 5, 7, 23])
    def test_every_residue(self, m):
        # sum_{p = r} log p/(p^2 - 1) and sum_{p = r} -log(1 - p^-2), every residue
        for r in range(m):
            for derivative in (0, 1):
                v = prime_class_sum(m, [r], 2, derivative)
                assert_within(v, *reference(m, [r], 2, derivative), (m, r, derivative))

    @pytest.mark.parametrize("tag", ["two_squares", "q3", "q5", "q7", "q23"])
    def test_case_classes(self, tag):
        # sum_{p in class} log p/(p^a - 1) for every exponent of the class's local factors
        m = len(get_case(tag).residues)
        for j, residues, exps in residue_classes(tag):
            for a in exps:
                v = prime_class_sum(m, residues, a)
                assert_within(v, *reference(m, residues, a), (tag, j, a))

    @pytest.mark.parametrize("tag", TABLE_CASES)
    def test_single_prime_classes_at_one(self, tag):
        # the factors with a = 1 sit on the class of the prime that divides m
        # (p = 2 for two_squares), a finite sum at s = 1: sound and tight
        m = len(get_case(tag).residues)
        ones = [(j, residues) for j, residues, exps in residue_classes(tag) if 1 in exps]
        assert len(ones) == 1 and all(math.gcd(r, m) > 1 for r in ones[0][1]), ones
        for derivative in (0, 1):
            v = prime_class_sum(m, ones[0][1], 1, derivative)
            assert_sound_and_tight(v, *reference(m, ones[0][1], 1, derivative), (tag, derivative))

    def test_mod_691(self):
        # the class nu = 2 (p = -1 mod 691) and a spread of residues, one per order class
        nu2 = prime_class_sum(691, [690], 2)
        assert_within(nu2, *reference(691, [690], 2), "nu = 2")
        for r in (1, 2, 3, 5, 6, 100, 345, 346, 500, 689):
            v = prime_class_sum(691, [r], 2)
            assert_within(v, *reference(691, [r], 2), r)

    def test_zeta_log_derivative(self):
        z = zeta_value(2, 1) / zeta_value(2)
        with mp.workdps(30):
            assert_within(z, mp.zeta(2, derivative=1) / mp.zeta(2), 0, "zeta'/zeta(2)")
        assert z.budget < 1e-14

    def test_landau_K_within_budget(self):
        # log K = -log(2)/2 + (1/2) sum_{p = 3 (4)} -log(1 - p^-2)
        ref, bound = reference(4, [3], 2, derivative=0)
        with mp.workdps(30):
            k_ref = mp.exp(-mp.log(2) / 2 + ref / 2)
            bound = float(k_ref * mp.expm1(bound / 2))
        k = landau_ramanujan_K()
        assert_sound_and_tight(k, k_ref, bound, "K")
        assert k.budget < 1e-14

    def test_q5_constant_within_budget(self):
        # C = g(1)/Gamma(3/4) with T(s)^4 = zeta(s)^3 g(s)^4 from the case table:
        # 4 log g(1) = 2 log |L(1, chi_c)| - log L(1, chi_5)
        #              - sum over the class factors (c, a) of c sum_p -log(1 - p^-a),
        # where p = 5's (3, 1) gives 3 log(4/5)
        spec = get_case("q5")
        euler = spec.euler
        bound = 0.0
        with mp.workdps(30):
            # L(1, chi_c) L(1, conj chi_c) = 2 pi^2/25 (j = 1), L(1, chi_5) = log((3 + sqrt5)/2)/sqrt5 (j = 2)
            l_values = {1: 2 * mp.pi**2 / 25, 2: mp.log((3 + mp.sqrt(5)) / 2) / mp.sqrt(5)}
            log_g = mp.fsum(e * mp.log(l_values[j]) for j, e in euler.l_exponents)
            for j, factor in enumerate(euler.classes):
                for c, a in factor:
                    ref, b = reference(5, spec.class_residues(j), a, derivative=0)
                    log_g -= c * ref
                    bound += abs(c) * b
            c_ref = mp.exp(log_g / euler.n) / mp.gamma(0.75)
            bound = float(c_ref * mp.expm1(bound / euler.n))
        c5 = first_order_C5()
        assert_sound_and_tight(c5, c_ref, bound, "C5")
        assert c5.budget < 1e-13


class TestSieveCrossCheck:
    @pytest.mark.parametrize("tag", TABLE_CASES)
    def test_every_class_sum(self, tag):
        # each class sum of the case table with a >= 2 agrees with the sieve to
        # 1e7 plus its theta tail; a = 1 comes only on the class of the prime
        # that divides m, whose sum is finite (TestSoundness)
        spec = get_case(tag)
        idx = class_index(spec, SIEVE)
        for j, factor in enumerate(spec.euler.classes):
            for _, a in factor:
                if a >= 2:
                    new = constants._class_sum(spec, j, a)
                    sieve = prime_log_sum(idx == j, a, SIEVE)
                    assert abs(new.value - sieve.value) <= new.budget + sieve.budget, (tag, j, a)

    @pytest.mark.parametrize("a", [2, 3])
    def test_q23_s3_intervals_nest(self, a):
        # S3 lies in S2's residues, (p|23) = 1, and every term is positive, so its
        # sum lies in [S3 to x, S3 to x + the rest of those residues past x]: the
        # interval at 1e7 lies inside the one at 1e6, and both hold the exact sum
        spec = get_case("q23")
        residues = prime_class_sum(23, spec.class_residues(1), a)
        exact = constants._class_sum(spec, 2, a)
        intervals = []
        for x in (10**6, SIEVE):
            idx = class_index(spec, x)
            s3 = prime_partial_sum(idx == 2, a, x)
            rest = residues - prime_partial_sum(idx == 1, a, x) - s3
            intervals.append((s3.value - s3.budget, s3.value + s3.budget + rest.value + rest.budget))
            lo, hi = intervals[-1]
            assert lo <= exact.value + exact.budget and exact.value - exact.budget <= hi, x
        (wide_lo, wide_hi), (deep_lo, deep_hi) = intervals
        assert wide_lo <= deep_lo and deep_hi <= wide_hi
        assert deep_hi - deep_lo < wide_hi - wide_lo

    def test_zeta_log_derivative(self):
        # -zeta'/zeta(2) = sum_p log p/(p^2 - 1)
        z = zeta_value(2, 1) / zeta_value(2)
        sieve = prime_log_sum(None, 2, SIEVE)
        assert abs(-z.value - sieve.value) <= z.budget + sieve.budget


def _clear_caches():
    """Drop every cached L-value, class sum and constant, so the next call recomputes them."""
    for module in (lseries, constants):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()


class TestFloatExceptions:
    @pytest.mark.parametrize("cutoff", [10**7, 7481])
    def test_constants_without_float_exceptions(self, cutoff):
        # q691's local factors reach p^-691, which underflows for every p >= 3;
        # no overflow, underflow or invalid operation may occur anywhere: not in
        # the exact constants or the identity right sides at s = 2, nor in the
        # sieve route to the cutoff that checks every class sum of the table
        _clear_caches()
        try:
            with np.errstate(all="raise"):
                for tag in TABLE_CASES:
                    spec = get_case(tag)
                    constants._b_from_euler(spec)
                    constants._log_g(spec, 2, 0, 0.0)
                    idx = class_index(spec, cutoff)
                    for j, factor in enumerate(spec.euler.classes):
                        for _, a in factor:
                            if a >= 2:
                                prime_log_sum(idx == j, a, cutoff)
                landau_ramanujan_K()
                first_order_C5()
        finally:
            _clear_caches()


class TestPrimeClassSum:
    @pytest.mark.parametrize("tag", TABLE_CASES)
    def test_classes_are_unions_of_residue_classes(self, tag):
        # the premise of the exact class sums: a prime's class is its residue's,
        # except that the Frobenius classes split the residues they share
        spec = get_case(tag)
        primes = sieve_primes(10**5)
        by_residue = np.array(spec.residues)[primes % len(spec.residues)]
        idx = class_index(spec, 10**5).astype(np.int64)
        split = np.isin(idx, spec.frobenius)
        assert np.array_equal(np.isin(by_residue, spec.frobenius), split)
        assert np.array_equal(idx[~split], by_residue[~split])
        assert set(spec.frobenius) <= set(idx.tolist())

    def test_budgets_are_rounding_except_q23(self):
        # every row's budget is rounding, q23's too since its S2 and S3 sums are exact
        for tag in TABLE_CASES:
            b = constants.second_order_constant(tag).b_f
            assert b.budget < 1e-12, (tag, b.budget)

    def test_union_of_all_classes_is_every_prime(self):
        total = prime_class_sum(5, range(5), 2)
        z = zeta_value(2, 1) / zeta_value(2)
        assert abs(total.value + z.value) <= total.budget + z.budget

    def test_empty_and_non_unit_residues(self):
        assert prime_class_sum(4, [0], 2).value == 0.0
        assert prime_class_sum(4, [2], 2).value == pytest.approx(math.log(2) / 3, rel=1e-15)
        p691 = prime_class_sum(691, [0], 3)
        assert p691.value == pytest.approx(math.log(691) / (691**3 - 1), rel=1e-15)

    def test_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            prime_class_sum(11, [1], 2)
        with pytest.raises(InvalidArgumentError):
            prime_class_sum(5, [1], 2, derivative=2)
        with pytest.raises(PreconditionError):
            prime_class_sum(5, [1], 1.5)
        for residues in ([1.5], ["a"]):  # not truncated to 1, nor a bare ValueError
            with pytest.raises(InvalidArgumentError):
                prime_class_sum(5, residues, 2)
        # s = 1 only without a unit residue, whose primes divide m
        with pytest.raises(PreconditionError):
            prime_class_sum(5, [0, 1], 1)
        assert prime_class_sum(5, [0], 1).value == pytest.approx(math.log(5) / 4, rel=1e-15)

    def test_int_exponent_past_the_float_range(self):
        # p^-s needs s as a float; an int s inside the float range gives the sum's limit, 0
        with pytest.raises(InvalidArgumentError):
            prime_class_sum(5, [1], 10**400)
        for s in (10**300, 2**1023, int(sys.float_info.max)):
            assert prime_class_sum(5, [1], s).value == 0.0

    def test_remainder_is_explicit(self):
        # no L-values past SIGMA_MAX: the class sum there is the direct part plus a bound
        a = lseries.SIGMA_MAX + 1
        v = prime_class_sum(7, [1, 2, 4], a)
        primes = sieve_primes(lseries.MOBIUS_P).tolist()
        direct = math.fsum(math.log(p) / (p**a - 1) for p in primes if p % 7 in (1, 2, 4))
        assert v.value == pytest.approx(direct, rel=1e-15)
        assert lseries._mobius_remainder(lseries.SIGMA_MAX + 1, 0) < 1e-20
