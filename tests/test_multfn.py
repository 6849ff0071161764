import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lrlab.budget import csum
from lrlab.errors import (
    ConsistencyError,
    InvalidArgumentError,
    PreconditionError,
    UnsupportedCaseError,
)
from lrlab.modforms import odd_tau_count, tau_exact
from lrlab.multfn import (
    CASES,
    M_ALWAYS,
    CaseSpec,
    _f_zero,
    class_index,
    count_f,
    dirichlet_series_truncated,
    f_sieve,
    get_case,
    h_f,
)
from lrlab.primes import sieve_primes
from scalar_reference import (
    f_prime_power,
    f_value,
    h_f_reference,
    lambda_f_prime_power,
    zero_period,
)


# x on both sides of the square of a prime p, where p moves between the
# small-prime rules and the big-prime pass, and the degenerate x = 1, 2, 3
EDGE_LIMITS = [1, 2, 3] + [
    p * p + d for p in (2, 3, 5, 7, 11, 13, 29, 31, 37, 41) for d in (-1, 0, 1)
]


def divisors(n):
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def prime_powers(x, primes=None):
    """(p, k, p^k) for every prime power p^k <= x, or only for the given primes."""
    for p in sieve_primes(x).primes.tolist() if primes is None else primes:
        pk, k = p, 1
        while pk <= x:
            yield p, k, pk
            pk *= p
            k += 1


def lambda_from_h_f(tag, pk):
    """Lambda_f(p^k) read off h_f's closed form, as x (H_f(x) - H_f(x - 1) +
    tau log(x/(x - 1))) at x = p^k >= 3."""
    jump = h_f(tag, float(pk)).value - h_f(tag, float(pk - 1)).value
    return pk * (jump + float(get_case(tag).tau) * math.log1p(1 / (pk - 1)))


class TestCaseSpecs:
    def test_delta_values(self):
        expected = {
            "q5": Fraction(1, 4),
            "q7": Fraction(1, 2),
            "q3": Fraction(1, 2),
            "q691": Fraction(1, 690),
            "q23": Fraction(1, 2),
            "two_squares": Fraction(1, 2),
        }
        for tag, delta in expected.items():
            assert CASES[tag].delta == delta
            assert CASES[tag].tau + delta == 1

    def test_unknown_case(self):
        with pytest.raises(UnsupportedCaseError):
            get_case("q13")


class TestFValue:
    def test_examples(self):
        assert f_value("q5", 2) == 1  # tau(2) = -24 = 1 (mod 5)
        assert f_value("q5", 5) == 0  # tau(5) = 4830 = 5 * 966
        assert f_value("q691", 1381) == 0
        assert f_value("two_squares", 3) == 0
        assert f_value("q3", 1) == 1

    def test_f_prime_power_rules(self):
        # q3, p = 1 (mod 3): zero exactly at k = 2 (mod 3)
        assert [f_prime_power("q3", 7, k) for k in range(7)] == [1, 1, 0, 1, 1, 0, 1]
        # q5, p = ±2 (mod 5): zero exactly at k = 3 (mod 4)
        assert [f_prime_power("q5", 2, k) for k in range(9)] == [1, 1, 1, 0, 1, 1, 1, 0, 1]
        # q23 at 23 and q691 at 691: never zero
        assert all(f_prime_power("q23", 23, k) == 1 for k in range(1, 30))
        assert all(f_prime_power("q691", 691, k) == 1 for k in range(1, 5))

    def test_q691_order_one_rule(self):
        # p = 8293 = 1 (mod 691): zero exactly at k = 690 (mod 691),
        # matching sigma_11(p^k) = k + 1 (mod 691)
        m0s = np.array(CASES["q691"].m0)[class_index("q691", 8293)]
        assert m0s[-1] == zero_period("q691", 8293) == 691
        assert f_prime_power("q691", 8293, 1) == 1
        assert f_prime_power("q691", 8293, 689) == 1
        assert f_prime_power("q691", 8293, 690) == 0

    def test_multiplicative(self):
        for tag in ("q3", "q5", "q23", "two_squares"):
            for m, n in ((4, 9), (8, 5), (25, 49), (27, 16), (121, 13)):
                assert f_value(tag, m * n) == f_value(tag, m) * f_value(tag, n)

    def test_matches_tau_oracle_sampled(self):
        # exact tau(n) mod q is the independent reference for every class rule
        tau = tau_exact(3000).values
        for q, tag in ((2, "q2"), (3, "q3"), (5, "q5"), (7, "q7"), (23, "q23"), (691, "q691")):
            for n in range(1, 3001, 7):
                assert f_value(tag, n) == int(tau[n - 1] % q != 0), (tag, n)


class TestClasses:
    def test_zero_periods_match_scalar_references(self):
        # q23 through the U^2 + 23 V^2 search, q691 through the multiplicative
        # order, the other cases through their residue tables
        primes = sieve_primes(10**4).primes.tolist()
        for tag, spec in CASES.items():
            m0s = np.array(spec.m0)[class_index(tag, 10**4)]
            assert m0s.tolist() == [zero_period(tag, p) for p in primes], tag

    def test_scalar_path_matches_vector_path(self):
        # each prime classified alone against the index of all primes; for q23
        # this pits the split test (one prime) against the form table (all primes)
        primes = sieve_primes(3000).primes
        for tag, spec in CASES.items():
            alone = [spec.m0[int(spec.classify(primes[i : i + 1])[0])] for i in range(len(primes))]
            assert alone == np.array(spec.m0)[class_index(tag, 3000)].tolist(), tag

    def test_class_index_is_a_prefix(self):
        # every limit's index is a prefix of a wider limit's
        wide = class_index("q5", 10**5)
        idx = class_index("q5", 10**4)
        assert idx.dtype == np.uint8 and wide.dtype == np.uint8
        assert np.array_equal(idx, wide[: len(idx)])
        assert sorted(set(idx.tolist())) == list(range(len(CASES["q5"].m0)))

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_f_of_a_prime_is_a_residue_rule(self, tag):
        # f(p) = 0 read from the residue table against f(p) = 0 read from the
        # classes, for q23 the Wilton classes that split the residues of S2
        spec = CASES[tag]
        primes = sieve_primes(10**6).primes
        from_classes = np.isin(np.array(spec.m0)[class_index(tag, 10**6)], (2, M_ALWAYS))
        assert np.array_equal(_f_zero(spec, primes), from_classes)

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_no_prime_above_sqrt_x_is_classified(self, tag, monkeypatch):
        largest = []
        classify = CaseSpec.classify

        def spy(spec, primes):
            largest.append(int(np.max(primes, initial=0)))
            return classify(spec, primes)

        monkeypatch.setattr(CaseSpec, "classify", spy)
        for run, x in ((count_f, 10**6), (f_sieve, 20000), (h_f, 1e6)):
            largest.clear()
            run(tag, x)
            assert largest and max(largest) <= math.isqrt(int(x)), (run.__name__, largest)

    def test_composite_rejected(self):
        # the scalar reference checks its prime
        with pytest.raises(InvalidArgumentError):
            zero_period("q5", 21)


class TestLambda:
    def test_von_mangoldt_example(self):
        assert lambda_f_prime_power("ones", 2, 3) == pytest.approx(math.log(2), abs=1e-14)

    def test_closed_form_example(self):
        # q5, p = 11 = 1 (mod 5): local factor (1-x^4)/((1-x)(1-x^5)), k = 4
        val = lambda_f_prime_power("q5", 11, 4)
        assert val == pytest.approx(-3 * math.log(11), abs=1e-12)
        assert lambda_from_h_f("q5", 11**4) == pytest.approx(val, abs=1e-9)

    def test_even_exponent_rule(self):
        # q3, p = 2 (mod 3): local factor (1-x^2)^{-1}: Lambda = 2 log p at even k
        assert lambda_f_prime_power("q3", 2, 1) == 0.0
        assert lambda_f_prime_power("q3", 2, 2) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_recursion_matches_closed_form(self):
        # h_f's closed-form term at every p^k <= 1e4 of these primes (p^k > 2)
        for tag in CASES:
            for p, k, pk in prime_powers(10**4, (2, 3, 5, 7, 11, 23, 29, 53)):
                if pk > 2:
                    rec = lambda_f_prime_power(tag, p, k)
                    assert lambda_from_h_f(tag, pk) == pytest.approx(rec, abs=1e-9), (tag, p, k)

    def test_lambda_table_matches_recursion(self):
        # the product's Lambda_f (h_f's closed-form term) at q5's table points
        for p, k in ((2, 5), (3, 4), (11, 2), (53, 1)):
            assert lambda_from_h_f("q5", p**k) == pytest.approx(
                lambda_f_prime_power("q5", p, k), abs=1e-12
            )

    def test_divisor_sum_recursion_oracle(self):
        # f(n) log n = sum_{d | n} f(d) Lambda_f(n/d) with Lambda supported
        # on prime powers, for all n <= 5000: the sieve's f against the
        # recursion's Lambda_f from the scalar f on prime powers
        for tag in ("q5", "q23", "two_squares"):
            lam = {pk: lambda_f_prime_power(tag, p, k) for p, k, pk in prime_powers(5000)}
            fvals = f_sieve(tag, 5000)
            for n in range(2, 5001):
                lhs = fvals[n] * math.log(n)
                rhs = math.fsum(
                    fvals[n // d] * lam[d] for d in divisors(n) if d in lam
                )
                assert lhs == pytest.approx(rhs, abs=1e-9), (tag, n)

    def test_ones_is_von_mangoldt(self):
        # Lambda_ones(p^k) = log p on every prime power <= 10^4 (off prime
        # powers Lambda_f vanishes by construction; the divisor-sum oracle
        # above checks the full convolution identity)
        for p, k, _ in prime_powers(10**4):
            assert lambda_f_prime_power("ones", p, k) == pytest.approx(math.log(p), abs=1e-12)

    def test_zero_exponent_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lambda_f_prime_power("q5", 3, 0)


class TestCountAndSieve:
    def test_examples(self):
        assert count_f("q691", 5000) == 4997  # zeros 1381, 2762, 4143
        assert count_f("q2", 100) == 5
        assert count_f("two_squares", 10) == 7  # {1,2,4,5,8,9,10}

    @pytest.mark.parametrize("run", [count_f, f_sieve])
    @pytest.mark.parametrize("x", [0, 0.5, math.nan, math.inf, -math.inf])
    def test_invalid_x(self, run, x):
        with pytest.raises(InvalidArgumentError):
            run("q5", x)

    def test_float_x_is_truncated(self):
        assert count_f("q691", 5000.9) == count_f("q691", 5000)
        assert f_sieve("q5", 100.5).tolist() == f_sieve("q5", 100).tolist()

    def test_sieve_matches_f_value(self):
        for tag in ("q3", "q5", "q7", "q23", "q691", "two_squares", "q2"):
            fs = f_sieve(tag, 800)
            for n in range(1, 801):
                assert int(fs[n]) == f_value(tag, n), (tag, n)

    def test_sieve_matches_f_value_at_sqrt_split(self):
        # f_sieve treats primes above sqrt(x) by cofactor
        for tag in CASES:
            ref = [f_value(tag, n) for n in range(1, max(EDGE_LIMITS) + 1)]
            for x in EDGE_LIMITS:
                fs = f_sieve(tag, x)
                assert not fs[0] and fs[1:].astype(int).tolist() == ref[:x], (tag, x)

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_count_matches_sieve(self, tag):
        # count_f subtracts the big-prime zeros by prefix counts instead of
        # marking them: it must agree with the marked array at every split
        fixed = [10, 99, 1000, 4096, 10007, 65535, 99991, 100000, 151321, 199999, 200000]
        for x in EDGE_LIMITS + fixed:
            assert count_f(tag, x) == int(np.count_nonzero(f_sieve(tag, x))), (tag, x)

    def test_q2_counts_odd_squares(self):
        # tau(n) is odd exactly when n is an odd square
        grid = np.unique(np.geomspace(1, 10**6, 60).astype(np.int64)).tolist()
        for x in grid + [(2 * j + 1) ** 2 + d for j in (10, 100, 499) for d in (-1, 0, 1)]:
            assert count_f("q2", x) == odd_tau_count(x), x

    def test_two_squares_brute_force(self):
        x = 5000
        brute = np.zeros(x + 1, dtype=bool)
        for u in range(0, math.isqrt(x) + 1):
            for v in range(0, math.isqrt(x - u * u) + 1):
                brute[u * u + v * v] = True
        assert np.array_equal(f_sieve("two_squares", x)[1:], brute[1:])

    def test_q691_zero_set(self):
        zeros = np.flatnonzero(~f_sieve("q691", 11053))[1:].tolist()
        assert zeros == sorted([1381 * m for m in range(1, 9)] + [5527, 8291])

    def test_ones_counts_everything(self):
        assert count_f("ones", 1234) == 1234


class TestHf:
    def test_exact_against_recursion(self):
        # brute-force H from the scalar recursion, x = 2000, for every case
        for tag in CASES:
            terms = [lambda_f_prime_power(tag, p, k) / pk for p, k, pk in prime_powers(2000)]
            brute = math.fsum(terms) - float(get_case(tag).tau) * math.log(2000)
            assert h_f(tag, 2000.0).value == pytest.approx(brute, abs=1e-12), tag

    def test_checkpoint_truncations(self):
        # printed reference values are truncated decimals
        assert -0.402 < h_f("q5", 1e5).value <= -0.401
        assert 0.163 <= h_f("two_squares", 1e5).value < 0.164

    def test_q691_checkpoint_decomposition(self):
        # H_q691(x) = H_ones(x) + log(x)/690 - sum log p/p over p = -1 (mod 691)
        # (no other Lambda difference has a prime power <= 1e6)
        x = 10**6
        t = sieve_primes(x)
        sel = t.primes % 691 == 690
        corr = -csum(t.logs[sel] / t.primes[sel])
        expected = h_f("ones", float(x)).value + math.log(x) / 690.0 + corr
        assert h_f("q691", float(x)).value == pytest.approx(expected, abs=1e-12)

    def test_ones_tends_to_minus_gamma(self):
        assert h_f("ones", 1e6).value == pytest.approx(-0.5772156649, abs=1e-3)

    @staticmethod
    def reference_points():
        # every 10th point of perfbench's H_f grid (50 a decade over 1e3..1e6),
        # x one below, at and one above the 256*j-th prime (a block boundary
        # of the S1 prefix), prime powers and one below them, and x = 2, 3, 4
        grid = [round(10 ** (3 + i / 50)) for i in range(0, 151, 10)]
        primes = sieve_primes(10**6).primes
        edges = [int(primes[256 * j - 1]) + d for j in (1, 2, 39, 306) for d in (-1, 0, 1)]
        powers = [n + d for n in (2**19, 3**12, 997**2) for d in (-1, 0)]
        return grid + edges + powers + [2, 3, 4, 1000.5]

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_matches_full_array_reference(self, tag):
        # the block prefix against every term rebuilt and summed exactly: the
        # same value, bit for bit, and a budget larger only by the bound on
        # the rounding of the prefix's lo
        for x in self.reference_points():
            new, ref = h_f(tag, x), h_f_reference(tag, x)
            assert new.value == ref.value, (tag, x)
            assert ref.budget <= new.budget <= ref.budget * (1 + 1e-5), (tag, x)

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_independent_of_earlier_calls(self, tag):
        # a copy of the spec starts with an empty S1 prefix; the value and the
        # budget must not depend on which calls grew the prefix before
        for x in (20, 1000.5, 7919, 10**5, 531441, 10**6):
            cold = h_f(replace(CASES[tag]), x)
            for before in (10 * x, x / 10):
                spec = replace(CASES[tag])
                h_f(spec, before)
                warm = h_f(spec, x)
                assert (warm.value, warm.budget) == (cold.value, cold.budget), (tag, x, before)

    def test_prefix_refuses_a_cumsum_that_is_not_sequential(self, monkeypatch):
        # lo holds the errors of hi's additions one at a time; a cumsum that
        # rounds differently would leave them wrong, so the build raises
        cumsum = np.cumsum

        def nudged(a):
            out = cumsum(a)
            out[-1] = np.nextafter(out[-1], np.inf)
            return out

        monkeypatch.setattr(np, "cumsum", nudged)
        with pytest.raises(ConsistencyError):
            h_f(replace(CASES["q5"]), 10**4)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            h_f("q5", 1.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_invalid(self, x):
        with pytest.raises(InvalidArgumentError):
            h_f("q5", x)

    @pytest.mark.parametrize("x", [10**20, 10**400])
    def test_int_past_the_limit_is_a_resource_limit(self, x):
        # 10**400 is past the float range: the same error, not an OverflowError
        from lrlab.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError, match="enumeration limit"):
            h_f("q5", x)

    def test_enumeration_limit(self):
        from lrlab.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            h_f("q5", 2e7)


class TestDirichletSeries:
    def test_q691_expansion(self):
        # T(2) truncated at 11053 equals the explicit expansion
        lhs = dirichlet_series_truncated("q691", 2.0, 11053)
        n = np.arange(1, 11054, dtype=np.float64)
        rhs = (
            csum(n**-2.0)
            - csum((1381.0 * np.arange(1, 9)) ** -2.0)
            - 5527.0**-2.0
            - 8291.0**-2.0
        )
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_q2_odd_squares(self):
        lhs = dirichlet_series_truncated("q2", 2.0, 100)
        rhs = sum(j**-4.0 for j in (1, 3, 5, 7, 9))
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_q3_against_f_value_loop(self):
        lhs = dirichlet_series_truncated("q3", 2.0, 10**4)
        rhs = math.fsum(f_value("q3", n) * n**-2.0 for n in range(1, 10**4 + 1))
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_s_precondition(self):
        with pytest.raises(PreconditionError):
            dirichlet_series_truncated("q3", 1.0, 100)
        with pytest.raises(PreconditionError):  # s <= 1 is false for nan
            dirichlet_series_truncated("q3", math.nan, 100)
