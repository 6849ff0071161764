import dataclasses
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from lrlab import multfn, primes
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
    M_NEVER,
    CaseSpec,
    _count_windows,
    _f_zero,
    _mark,
    _small_rules,
    class_index,
    count_f,
    dirichlet_series_truncated,
    f_sieve,
    get_case,
    h_f,
)
from lrlab.primes import sieve_primes
from euler_reference import HAND_CASES, REFERENCE, derived_class, merged
from scalar_reference import (
    f_prime_power,
    f_value,
    h_f_reference,
    lambda_f_prime_power,
    multiplicative_order,
    zero_period,
)


# The constant function 1, f's simplest case (H_f tends to -gamma): not a
# library case, but every path of the engine runs on it
ONES = CaseSpec("ones", (0,), (M_NEVER,))
SPECS = {**CASES, "ones": ONES}

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


def lambda_from_h_f(case, pk):
    """Lambda_f(p^k) read off h_f's closed form, as x (H_f(x) - H_f(x - 1) +
    tau log(x/(x - 1))) at x = p^k >= 3."""
    jump = h_f(case, float(pk)).value - h_f(case, float(pk - 1)).value
    return pk * (jump + float(get_case(case).tau) * math.log1p(1 / (pk - 1)))


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

    def test_a_case_is_its_definition(self):
        assert [f.name for f in dataclasses.fields(CaseSpec)] == ["tag", "residues", "m0", "frobenius"]

    def test_the_library_cases(self):
        assert set(CASES) == {"q2", "q3", "q5", "q7", "q23", "q691", "two_squares"}

    @pytest.mark.parametrize(
        "fields",
        [
            ("x", (0,), (-3,)),  # p^(m0 - 1) a float below 1: _small_rules never ended
            ("x", (0, 5), (M_NEVER,)),  # a bare IndexError in h_f
            ("x", (0,), (2**70,)),  # an OverflowError
            ("x", (0,), (2**16 + 1,)),
            ("x", "ab", (M_NEVER,)),  # a ValueError
            ("x", [0], (M_NEVER,)),  # unhashable in second_order_constant
            ("x", (0,), [M_NEVER]),
            ("x", (0, 0, 1), (M_NEVER, 2), (1,)),  # a meaningless count: 36 at x = 100
            ("x", (0,), (M_NEVER,), [1]),
            (None, (0,), (M_NEVER,)),
            ("x", (), (M_NEVER,)),
            ("x", (0,), ()),
            ("x", (True,), (M_NEVER,)),
            ("x", (0.0,), (M_NEVER,)),
            ("x", ((0, 1),), (M_NEVER, 2)),
            ("x", tuple(range(300)), (M_NEVER,) * 300),  # a class index past uint8
            ("q23", multfn._WILTON_RESIDUES, (2, 2, 3, M_NEVER), (1, 2)),  # S2 and S3 with two f(p)
            ("q23", multfn._WILTON_RESIDUES, (2, 3, 23, M_NEVER), (2, 1)),
        ],
    )
    def test_a_hand_made_spec_is_checked(self, fields):
        with pytest.raises(InvalidArgumentError) as raised:
            CaseSpec(*fields)
        assert "\n" not in str(raised.value)


class TestEulerDerivation:
    @pytest.mark.parametrize("tag", sorted(REFERENCE))
    def test_matches_the_hand_table(self, tag):
        tau, n, l_exponents, classes = REFERENCE[tag]
        spec = replace(CASES[tag])  # derived afresh
        assert spec.tau == tau
        euler = spec.euler
        assert (euler.n, euler.modulus, euler.l_exponents) == (n, len(spec.residues), l_exponents)
        assert len(euler.classes) == len(classes)
        for j, typed in enumerate(classes):  # each hand class, by its residues
            derived = euler.classes[derived_class(spec, j)]
            assert dict((a, c) for c, a in derived) == merged(typed), (tag, derived, typed)
            assert [a for _, a in derived] == sorted(merged(typed))

    @pytest.mark.parametrize("tag", sorted(HAND_CASES))
    def test_tau_cases_group_the_residues_as_the_hand_table(self, tag):
        residues, m0 = HAND_CASES[tag]
        spec = CASES[tag]
        assert len(spec.residues) == len(residues) and len(spec.m0) == len(m0) == len(set(residues))
        assert [spec.m0[c] for c in spec.residues] == [m0[c] for c in residues]
        # two residues share a derived class iff they share a hand class
        assert len(set(zip(residues, spec.residues))) == len(m0) == len(set(spec.residues))

    @pytest.mark.parametrize("tag", sorted(HAND_CASES))
    def test_tau_case_class_order(self, tag):
        # p = q first if ALWAYS, last if NEVER; the unit classes by the least order of their residues
        spec = CASES[tag]
        q = len(spec.residues)
        units = [j for j in range(len(spec.m0)) if j != spec.residues[0]]
        assert (spec.residues[0], spec.m0[spec.residues[0]]) in ((0, M_ALWAYS), (len(spec.m0) - 1, M_NEVER))
        least = [min(multiplicative_order(r, q) for r in spec.class_residues(j)) for j in units]
        assert least == sorted(set(least)), tag

    @pytest.mark.parametrize("tag, tau", [("q2", 0), ("ones", 1)])
    def test_moduli_without_characters(self, tag, tau):
        spec = SPECS[tag]
        assert spec.tau == tau
        with pytest.raises(UnsupportedCaseError, match=f"no product identity registered for '{tag}'"):
            spec.euler

    @pytest.mark.parametrize(
        "residues, m0",
        [
            # f(2) = f(3) = 0 but f(4) = 1: the rational class {2, 3} mod 5 is split
            ((0, 1, 2, 3, 4), (M_ALWAYS, 5, 5, 2, 2)),
            # a class of 3, 5 and 6 mod 7: f(3^2) = f(2) = 0 but f(6^2) = f(1) = 1
            ((0, 1, 3, 2, 3, 2, 2), (M_ALWAYS, M_NEVER, 3, 2)),
            # class 2 holds no residue
            ((0, 1, 1), (M_ALWAYS, 3, 2)),
        ],
    )
    def test_inconsistent_definitions_raise(self, residues, m0):
        spec = CaseSpec("bad", residues, m0)
        assert spec.tau  # the density needs no factorization
        with pytest.raises(ConsistencyError):
            spec.euler

    def test_import_derives_nothing(self, src_env):
        script = (
            "import lrlab\n"
            "from lrlab.multfn import CASES\n"
            "print(sorted(k for c in CASES.values() for k in ('tau', 'euler') if k in vars(c)))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env,
                              timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


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
        for tag, spec in SPECS.items():
            m0s = np.array(spec.m0)[class_index(spec, 10**4)]
            assert m0s.tolist() == [zero_period(spec, p) for p in primes], tag

    def test_scalar_path_matches_vector_path(self):
        # each prime classified alone against the index of all primes; for q23
        # this pits the split test (one prime) against the form table (all primes)
        primes = sieve_primes(3000).primes
        for tag, spec in SPECS.items():
            alone = [spec.m0[int(spec.classify(primes[i : i + 1])[0])] for i in range(len(primes))]
            assert alone == np.array(spec.m0)[class_index(spec, 3000)].tolist(), tag

    def test_class_index_is_a_prefix(self):
        # every limit's index is a prefix of a wider limit's
        wide = class_index("q5", 10**5)
        idx = class_index("q5", 10**4)
        assert idx.dtype == np.uint8 and wide.dtype == np.uint8
        assert np.array_equal(idx, wide[: len(idx)])
        assert sorted(set(idx.tolist())) == list(range(len(CASES["q5"].m0)))

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_f_of_a_prime_is_a_residue_rule(self, tag):
        # f(p) = 0 read from the residue table against f(p) = 0 read from the
        # classes, for q23 the Wilton classes that split the residues of S2
        spec = SPECS[tag]
        primes = sieve_primes(10**6).primes
        from_classes = np.isin(np.array(spec.m0)[class_index(spec, 10**6)], (2, M_ALWAYS))
        assert np.array_equal(_f_zero(spec, primes), from_classes)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_no_prime_above_sqrt_x_is_classified(self, tag, monkeypatch):
        largest = []
        classify = CaseSpec.classify

        def spy(spec, primes):
            largest.append(int(np.max(primes, initial=0)))
            return classify(spec, primes)

        monkeypatch.setattr(CaseSpec, "classify", spy)
        for run, x in ((count_f, 10**6), (f_sieve, 20000), (h_f, 1e6)):
            largest.clear()
            run(replace(SPECS[tag]), x)  # a fresh copy: h_f keeps its k >= 2 terms per spec
            assert largest and max(largest) <= math.isqrt(int(x)), (run.__name__, largest)

    def test_composite_rejected(self):
        # the scalar reference checks its prime
        with pytest.raises(InvalidArgumentError):
            zero_period("q5", 21)


class TestLambda:
    def test_von_mangoldt_example(self):
        assert lambda_f_prime_power(ONES, 2, 3) == pytest.approx(math.log(2), abs=1e-14)

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
        for tag, spec in SPECS.items():
            for p, k, pk in prime_powers(10**4, (2, 3, 5, 7, 11, 23, 29, 53)):
                if pk > 2:
                    rec = lambda_f_prime_power(spec, p, k)
                    assert lambda_from_h_f(spec, pk) == pytest.approx(rec, abs=1e-9), (tag, p, k)

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
            assert lambda_f_prime_power(ONES, p, k) == pytest.approx(math.log(p), abs=1e-12)

    def test_zero_exponent_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lambda_f_prime_power("q5", 3, 0)


class TestCountAndSieve:
    def test_examples(self):
        assert count_f("q691", 5000) == 4997  # zeros 1381, 2762, 4143
        assert count_f("q2", 100) == 5
        assert count_f("two_squares", 10) == 7  # {1,2,4,5,8,9,10}

    @pytest.mark.parametrize("run", [count_f, f_sieve])
    @pytest.mark.parametrize("x", [0, 0.5, math.nan, math.inf, -math.inf, "100", None])
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
        for tag, spec in SPECS.items():
            ref = [f_value(spec, n) for n in range(1, max(EDGE_LIMITS) + 1)]
            for x in EDGE_LIMITS:
                fs = f_sieve(spec, x)
                assert not fs[0] and fs[1:].astype(int).tolist() == ref[:x], (tag, x)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_count_matches_sieve(self, tag):
        # count_f subtracts the big-prime zeros by prefix counts instead of
        # marking them: it must agree with the marked array at every split
        spec = SPECS[tag]
        fixed = [10, 99, 1000, 4096, 10007, 65535, 99991, 100000, 151321, 199999, 200000]
        for x in EDGE_LIMITS + fixed:
            assert count_f(spec, x) == int(np.count_nonzero(f_sieve(spec, x))), (tag, x)
            # below SEGMENT_SIZE count_f reads f_sieve's table: the windows are checked alone
            assert _count_windows(spec, x) == int(np.count_nonzero(f_sieve(spec, x))), (tag, x)

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
        assert count_f(ONES, 1234) == 1234


class TestSegments:
    """count_f's marker window by window: tiny windows put many boundaries,
    and the first window's end, below x.  f_sieve marks its whole array at
    once and is checked against f_value at the same x."""

    @pytest.fixture(params=[97, 1000])
    def segment(self, request, monkeypatch):
        monkeypatch.setattr(primes, "SEGMENT_SIZE", request.param)
        return request.param

    @staticmethod
    @lru_cache(maxsize=None)
    def reference(tag):
        return [f_value(SPECS[tag], n) for n in range(1, 5001)]

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_sieve_matches_f_value(self, tag, segment):
        ref = self.reference(tag)
        for x in (segment - 1, segment, segment + 1, 2 * segment, 4999, 5000):
            fs = f_sieve(SPECS[tag], x)
            assert not fs[0] and fs[1:].astype(int).tolist() == ref[:x], (tag, segment, x)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_count_matches_sieve(self, tag, segment):
        # count_f marks the odd n and adds n = 2^a m as the odd m <= x >> a:
        # x = 2^k - 1, 2^k, 2^k + 1 move the cuts x >> a across powers of 2,
        # and x with x >> a at the edge of an odd window (the k-th starts at
        # n = 2k*segment + 1) cut a window at its last or first entry
        powers = [2**k + d for k in range(1, 14) for d in (-1, 0, 1)]
        cuts = (2 * segment - 1, 2 * segment, 2 * segment + 1, 4 * segment + 1)
        edges = [y << a | low for a in (1, 2, 3) for y in cuts for low in (0, (1 << a) - 1)]
        near = [segment - 1, segment, segment + 1, 3 * segment + 2, 4999, 5000]
        spec = SPECS[tag]
        for x in EDGE_LIMITS + near + powers + edges:
            assert count_f(spec, x) == int(np.count_nonzero(f_sieve(spec, x))), (tag, segment, x)
            windows = _count_windows(spec, x)
            assert windows == int(np.count_nonzero(f_sieve(spec, x))), (tag, segment, x)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_rules_run_in_any_order(self, tag):
        # a rule writes back the multiples of p^(e+1) it cleared, so no rule undoes another
        x, lo = 5000, 1234
        _, rules = _small_rules(SPECS[tag], x)
        forward, backward = np.ones(x + 1 - lo, dtype=bool), np.ones(x + 1 - lo, dtype=bool)
        _mark(forward, lo, rules)
        _mark(backward, lo, rules[::-1])
        assert np.array_equal(forward, backward)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_odd_rules_run_in_any_order(self, tag):
        # count_f's step-2 marking of the odd n in [lo, lo + 2*len): the same
        # in either rule order, and the odd entries of f_sieve's step-1 marking
        x, lo = 5000, 1235
        _, rules = _small_rules(SPECS[tag], x)
        odd = [rule for rule in rules if rule[0] != 2]
        forward, backward = np.ones((x - lo) // 2 + 1, dtype=bool), np.ones((x - lo) // 2 + 1, dtype=bool)
        _mark(forward, lo, odd, step=2)
        _mark(backward, lo, odd[::-1], step=2)
        assert np.array_equal(forward, backward)
        every = np.ones(2 * len(forward), dtype=bool)
        _mark(every, lo, odd)
        assert np.array_equal(forward, every[::2])

    def test_counts_at_the_desk_limit(self):
        counts = {"q2": 1581, "q3": 1045838, "q5": 4504714, "q7": 1577359,
                  "q23": 1687791, "q691": 9981976, "two_squares": 1985459}
        assert {tag: count_f(tag, 10**7) for tag in counts} == counts

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_count_holds_one_window(self, tag):
        # the shared prime table aside, one 1 MB window and its big primes
        sieve_primes(10**7)
        tracemalloc.start()
        try:
            count_f(SPECS[tag], 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


class TestTable:
    """count_f up to primes.SEGMENT_SIZE: prefix counts of the case's table
    of f, built by f_sieve for the largest x asked for."""

    @staticmethod
    def limits():
        size = primes.SEGMENT_SIZE
        powers = [2**k + d for k in range(1, 21) for d in (-1, 0, 1)]
        return sorted(set(range(1, 301)) | set(powers) | {size - 1, size + 1})

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_matches_the_windows_in_any_call_order(self, tag):
        limits = self.limits()
        want = {x: _count_windows(SPECS[tag], x) for x in limits}
        shuffled = limits[:]
        np.random.default_rng(len(tag)).shuffle(shuffled)
        for order in (limits, limits[::-1], shuffled):
            spec = replace(SPECS[tag])  # a fresh copy starts with an empty table
            assert [count_f(spec, x) for x in order] == [want[x] for x in order], tag

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_a_larger_x_builds_once(self, tag, monkeypatch):
        # a smaller x reads the table of the largest x asked for; a larger
        # x up to SEGMENT_SIZE builds it once; an x above it builds nothing
        builds, build = [], multfn.f_sieve

        def spy(case, x):
            builds.append(x)
            return build(case, x)

        monkeypatch.setattr(multfn, "f_sieve", spy)
        spec = replace(SPECS[tag])
        count_f(spec, 10**4)
        assert builds == [10**4]
        for x in (10**4, 5000.5, 99, 2, 1):
            count_f(spec, x)
        assert builds == [10**4]
        count_f(spec, 10**5)
        assert builds == [10**4, 10**5]
        count_f(spec, primes.SEGMENT_SIZE + 1)
        count_f(spec, 3 * primes.SEGMENT_SIZE)
        assert builds == [10**4, 10**5]
        assert len(spec._tables.f) == 10**5 + 1

    def test_table_is_read_only(self):
        spec = replace(CASES["q5"])
        count_f(spec, 1000)
        table = spec._tables.f
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = False

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_table_holds_one_window(self, tag):
        # the shared prime table aside, count_f to SEGMENT_SIZE keeps its
        # SEGMENT_SIZE + 1 bools, and f_sieve's build peaks below 3 MB
        size = primes.SEGMENT_SIZE
        sieve_primes(size)
        spec = replace(SPECS[tag])
        tracemalloc.start()
        try:
            count_f(spec, size)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size < held < 1.1 * size, held
        assert peak < 3e6, peak

    def test_count_f_and_h_f_share_one_holder(self):
        # a fresh spec makes one _Tables, on its first call of either kind
        spec = replace(CASES["q5"])
        count_f(spec, 1000)
        tables = spec._tables
        h_f(spec, 1000)
        assert spec._tables is tables
        assert len(tables.f) == 1001 and tables.covered == 1000


class TestNoModuleCache:
    def test_multfn_keeps_no_module_level_cache(self):
        # every table lives on a CaseSpec, so a copy of a spec starts empty:
        # no multfn function is an lru_cache, and no module-level dict, list
        # or set holds an array
        own = [obj for obj in vars(multfn).values() if getattr(obj, "__module__", None) == multfn.__name__]
        assert not [obj for obj in own if hasattr(obj, "cache_info")]
        for name, obj in vars(multfn).items():
            if isinstance(obj, dict):
                obj = list(obj.values())
            if isinstance(obj, (list, set)):
                assert not any(isinstance(v, np.ndarray) for v in obj), name


class TestHf:
    def test_exact_against_recursion(self):
        # brute-force H from the scalar recursion, x = 2000, for every case
        for tag, spec in SPECS.items():
            terms = [lambda_f_prime_power(spec, p, k) / pk for p, k, pk in prime_powers(2000)]
            brute = math.fsum(terms) - float(spec.tau) * math.log(2000)
            assert h_f(spec, 2000.0).value == pytest.approx(brute, abs=1e-12), tag

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
        corr = -math.fsum(t.logs[sel] / t.primes[sel])
        expected = h_f(ONES, float(x)).value + math.log(x) / 690.0 + corr
        assert h_f("q691", float(x)).value == pytest.approx(expected, abs=1e-12)

    def test_ones_tends_to_minus_gamma(self):
        assert h_f(ONES, 1e6).value == pytest.approx(-0.5772156649, abs=1e-3)

    @staticmethod
    def reference_points():
        # every 10th point of perfbench's H_f grid (50 a decade over 1e3..1e6),
        # x one below, at and one above the _S1_BLOCK*j-th prime (a block
        # boundary of the S1 prefix), prime powers and one below them, and
        # x = 2, 3, 4
        grid = [round(10 ** (3 + i / 50)) for i in range(0, 151, 10)]
        primes = sieve_primes(10**6).primes
        block, last = multfn._S1_BLOCK, len(primes) // multfn._S1_BLOCK
        edges = [int(primes[block * j - 1]) + d for j in (1, 2, 39, last) for d in (-1, 0, 1)]
        powers = [n + d for n in (2**19, 3**12, 997**2) for d in (-1, 0)]
        return grid + edges + powers + [2, 3, 4, 1000.5]

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_matches_full_array_reference(self, tag):
        # the block prefix against every term rebuilt and summed exactly: the
        # same value, bit for bit, and a budget larger only by the bound on
        # the rounding of the prefix's lo
        for x in self.reference_points():
            new, ref = h_f(SPECS[tag], x), h_f_reference(SPECS[tag], x)
            assert new.value == ref.value, (tag, x)
            assert ref.budget <= new.budget <= ref.budget * (1 + 1e-5), (tag, x)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_independent_of_earlier_calls(self, tag):
        # a copy of the spec starts with an empty S1 prefix; the value and the
        # budget must not depend on which calls grew the prefix before
        for x in (20, 1000.5, 7919, 10**5, 531441, 10**6):
            cold = h_f(replace(SPECS[tag]), x)
            for before in (10 * x, x / 10):
                spec = replace(SPECS[tag])
                h_f(spec, before)
                warm = h_f(spec, x)
                assert (warm.value, warm.budget) == (cold.value, cold.budget), (tag, x, before)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_k_ge_2_terms_are_kept_for_the_largest_x(self, tag, monkeypatch):
        # a smaller x reads the table of the largest x asked for, classifying
        # nothing; a larger x rebuilds it once, classifying only the primes
        # <= sqrt of that x
        largest, builds = [], []
        classify, build = CaseSpec.classify, multfn._prime_power_terms

        def spy_classify(spec, primes):
            largest.append(int(np.max(primes, initial=0)))
            return classify(spec, primes)

        def spy_build(spec, table, x):
            builds.append(x)
            return build(spec, table, x)

        monkeypatch.setattr(CaseSpec, "classify", spy_classify)
        monkeypatch.setattr(multfn, "_prime_power_terms", spy_build)
        spec = replace(SPECS[tag])
        h_f(spec, 10**5)
        assert builds == [10**5]
        largest.clear()
        builds.clear()
        for x in (10**5, 20000.5, 1000, 4, 2):
            h_f(spec, x)
        assert largest == [] and builds == [], (largest, builds)
        h_f(spec, 10**6)
        assert builds == [10**6]
        assert largest and max(largest) <= math.isqrt(10**6), largest

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_selected_terms_are_the_terms_of_x(self, tag):
        # the k >= 2 prefix read at x from the table kept for 10**6 is, bit for
        # bit, the last row of a table built at x
        spec = replace(SPECS[tag])
        kept = spec._tables
        kept.grow(10**6)
        for x in (2, 3, 4, 8, 9, 1000, 2**19 - 1, 2**19, 3**12, 997**2 - 1, 997**2, 10**6):
            built = multfn._Tables(spec)
            built.grow(x)
            row = kept.pk_sums[kept.pk.searchsorted(x, side="right")]
            assert row.tobytes() == built.pk_sums[-1].tobytes(), x
            assert np.array_equal(kept.pk[: len(built.pk)], built.pk), x
        assert kept.covered == 10**6

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_warm_call_reads_the_kept_tables(self, tag, monkeypatch):
        # up to the largest x asked for, a call sieves nothing, classifies
        # nothing (the tail is read by residue), builds no k >= 2 table and
        # reads the S1 row of its pi(x) // _S1_BLOCK full blocks
        xs = (10**6, 999999.5, 531441, 20000.5, 1000, 311, 4, 2)
        spec = replace(SPECS[tag])
        h_f(spec, 10**6)
        table = sieve_primes(10**6).primes
        blocks = [int(table.searchsorted(int(x), side="right")) // multfn._S1_BLOCK for x in xs]
        calls, rows = [], []

        class Rows(np.ndarray):
            def __getitem__(self, key):
                rows.append(key)
                return super().__getitem__(key)

        def spy(name, fn):
            return lambda *a: calls.append(name) or fn(*a)

        monkeypatch.setattr(primes, "sieve_primes", spy("sieve_primes", primes.sieve_primes))
        monkeypatch.setattr(multfn, "_f_zero", spy("_f_zero", multfn._f_zero))
        monkeypatch.setattr(CaseSpec, "classify", spy("classify", CaseSpec.classify))
        monkeypatch.setattr(multfn, "_prime_power_terms", spy("_prime_power_terms", multfn._prime_power_terms))
        spec._tables.s1 = spec._tables.s1.view(Rows)
        for x in xs:
            h_f(spec, x)
        assert calls == [], calls
        assert rows == blocks, (rows, blocks)

    @pytest.mark.parametrize("tag", sorted(SPECS))
    def test_tail_reads_f_zero_by_residue(self, tag):
        # the tail's list of f(p) = 0 by residue against _f_zero, which the
        # prefix build reads, for every prime <= 1e5 (for q23, the residue
        # class that S2 and S3 split as well)
        spec = SPECS[tag]
        zero = multfn._Tables(spec).zero
        p = sieve_primes(10**5).primes
        assert [zero[q % len(zero)] for q in p.tolist()] == _f_zero(spec, p).tolist()

    def test_a_cold_call_reads_the_largest_table(self, monkeypatch):
        # growing the prefixes to 1e5 reads the primes and logs of the shared
        # largest table, not those of the cached slice to 1e5
        monkeypatch.setattr(primes, "_largest", None)
        primes._sieve_cached.cache_clear()
        try:
            sieve_primes(10**6)
            h_f(replace(CASES["q5"]), 1e5)
            assert sieve_primes(10**5)._logs is None
        finally:
            primes._sieve_cached.cache_clear()

    def test_a_chunk_is_whole_blocks(self):
        # grow keeps every _S1_BLOCK-th row of each chunk, counted from the
        # chunk's start, so a chunk must end on a block end
        assert multfn._S1_CHUNK % multfn._S1_BLOCK == 0

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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, "100", None])
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
            math.fsum(n**-2.0)
            - math.fsum((1381.0 * np.arange(1, 9)) ** -2.0)
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
