import itertools
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrlab import primes
from lrlab.errors import InvalidArgumentError, ResourceLimitError
from lrlab.modforms import tau_exact
from lrlab.multfn import class_index
from lrlab.primes import (
    PRIME_DESK_LIMIT,
    W_P23,
    W_S1,
    W_S2,
    W_S3,
    WILTON_ORDER,
    WILTON_RESIDUES,
    WILTON_SIZE,
    WILTON_TRACE,
    sieve_primes,
    wilton_classes,
)
from euler_reference import _DIVISORS_690, _ORDER_CLASSES
from scalar_reference import (
    cubic_root_exists,
    cubic_splits,
    is_prime,
    kronecker_symbol,
    multiplicative_order,
    wilton_class,
    wilton_codes_cubic,
    zero_period,
)


@pytest.fixture
def fresh_sieve(monkeypatch):
    """The sieve as at import, with no table; the module's own comes back after."""
    monkeypatch.setattr(primes, "_largest_limit", 1)
    monkeypatch.setattr(primes, "_largest", primes._largest[:0])
    primes._sieve_cached.cache_clear()
    yield
    primes._sieve_cached.cache_clear()


def trial_division_sieve(limit):
    """Independent oracle: primes by direct trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


class TestSieve:
    def test_first_primes(self):
        assert sieve_primes(10).tolist() == [2, 3, 5, 7]

    def test_against_trial_division(self):
        assert sieve_primes(2000).tolist() == trial_division_sieve(2000)

    def test_pi_reference_counts(self):
        # pi(1e4), pi(1e5), pi(1e6)
        assert len(sieve_primes(10**4)) == 1229
        assert len(sieve_primes(10**5)) == 9592
        assert len(sieve_primes(10**6)) == 78498

    def test_strictly_increasing_and_prime(self):
        p = sieve_primes(10**5)
        assert np.all(np.diff(p) > 0)
        rng = random.Random(1)
        for q in rng.sample(p.tolist(), 50):
            assert is_prime(q)

    def test_crosses_segment_boundaries(self, monkeypatch):
        # a window holds SEGMENT_SIZE odd n, the k-th from 2k*SEGMENT_SIZE + 3;
        # small windows put many edges below the limit, and each limit ends
        # at, just past or just before one.  Checked against trial division.
        ref = np.array(trial_division_sieve(10_003))
        for segment in (97, 1000):
            monkeypatch.setattr(primes, "SEGMENT_SIZE", segment)
            for limit in [2 * k * segment + d for k in range(1, 6) for d in range(4)] + [10_003]:
                assert np.array_equal(primes._segmented_sieve(limit), ref[ref <= limit]), (segment, limit)
        # the full-size window's first edge, n = 2^21 + 3
        monkeypatch.undo()
        lo = 2 * primes.SEGMENT_SIZE + 3
        t = primes._segmented_sieve(lo + 1000)
        window = [int(p) for p in t if lo - 50 <= p <= lo + 1000]
        assert window == [n for n in range(lo - 50, lo + 1001) if is_prime(n)]

    def test_small_limit_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sieve_primes(1)

    @pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf, None])
    def test_non_finite_limit_rejected(self, limit):
        with pytest.raises(InvalidArgumentError):
            sieve_primes(limit)

    @pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf, None, 1])
    def test_class_index_limit_rejected(self, limit):
        # class_index hands its limit to sieve_primes unconverted
        with pytest.raises(InvalidArgumentError):
            class_index("q3", limit)

    def test_smaller_limits_slice_the_largest_table(self, fresh_sieve):
        # one sieve to the largest limit seen; every limit is a prefix of it,
        # equal to a fresh sieve and read-only like it
        for limit in (1000, 10**5, 2, 3, 7919, 7920, 99991, 10**5 - 1, 150000):
            p = sieve_primes(limit)
            assert np.array_equal(p, primes._simple_sieve(limit)), limit
            assert not p.flags.writeable
        assert primes._largest_limit == 150000
        assert np.array_equal(primes._largest, primes._simple_sieve(150000))
        assert np.shares_memory(sieve_primes(5000), primes._largest)

    def test_returns_a_read_only_int64_view(self):
        # a limit's primes are an int64 view of the largest table, which no
        # caller can write through
        p = sieve_primes(1000)
        assert p.dtype == np.int64 and p.shape == (168,)
        assert np.shares_memory(p, primes._largest)
        with pytest.raises(ValueError):
            p[0] = 7
        with pytest.raises(ValueError):
            p.flags.writeable = True

    def test_every_limit_is_a_view_of_one_sieve(self, fresh_sieve, monkeypatch):
        made = []
        sieve = primes._segmented_sieve
        monkeypatch.setattr(primes, "_segmented_sieve", lambda limit: made.append(sieve(limit)) or made[-1])
        for limit in (10**4, 10**4 - 1, 1000, 2):
            assert np.shares_memory(sieve_primes(limit), made[0]), limit
        assert len(made) == 1

    def test_a_larger_sieve_frees_the_table_it_supersedes(self, fresh_sieve):
        # the cached views of the old largest table, and its own cache entry,
        # must not keep it alive once a larger sieve replaces it
        old = sieve_primes(20000)
        table = weakref.ref(primes._largest)
        for limit in (1000, 5000, 19999):
            assert np.shares_memory(sieve_primes(limit), old)  # views of the one table
        sieve_primes(30000)
        assert table() is not None  # the caller's view still holds it
        del old
        assert table() is None
        assert primes._largest_limit == 30000

    def test_kept_logs_are_the_logs_of_the_whole_table(self, monkeypatch):
        # the logs grow by offset slices, only as far as asked for, and match
        # np.log of the whole table bit for bit
        monkeypatch.setattr(primes, "_logs", primes._logs[:0])
        p = sieve_primes(10**6)
        want = np.log(p.astype(np.float64))
        for n in (0, 1, 168, 169, 9592, 5000, 78498):
            logs = primes._prime_logs(n)
            assert logs.tobytes() == want[:n].tobytes() and not logs.flags.writeable, n
        assert len(primes._logs) == 78498

    def test_desk_limit(self):
        with pytest.raises(ResourceLimitError):
            sieve_primes(PRIME_DESK_LIMIT + 1)
        with pytest.raises(ResourceLimitError):
            sieve_primes(10**30)


class TestKronecker:
    def test_quadratic_residue_examples(self):
        assert kronecker_symbol(2, 23) == 1  # 5^2 = 25 = 2 (mod 23)
        residues = {pow(a, 2, 23) for a in range(1, 23)}
        assert 5 not in residues
        assert kronecker_symbol(5, 23) == -1
        # Wilton's residue table: P23 at 0, S1 where (r|23) = -1 (Euler's criterion), S2 (and S3) else
        by_symbol = {0: W_P23, -1: W_S1, 1: W_S2}
        assert WILTON_RESIDUES == tuple(by_symbol[kronecker_symbol(r, 23)] for r in range(23))

    def test_at_two(self):
        # (a|2) = +1 iff a = ±1 (mod 8)
        assert kronecker_symbol(-23, 2) == 1
        assert kronecker_symbol(7, 2) == 1
        assert kronecker_symbol(3, 2) == -1
        assert kronecker_symbol(6, 2) == 0

    def test_euler_criterion_exhaustive_small(self):
        for p in sieve_primes(300).tolist():
            if p == 2:
                continue
            for a in range(1, p):
                e = pow(a, (p - 1) // 2, p)
                assert kronecker_symbol(a, p) == (1 if e == 1 else -1)

    def test_euler_criterion_sampled_to_1e4(self):
        rng = random.Random(20_26)
        for p in sieve_primes(10**4).tolist():
            if p < 300 or p == 2:
                continue
            for a in (rng.randrange(1, p) for _ in range(8)):
                e = pow(a, (p - 1) // 2, p)
                assert kronecker_symbol(a, p) == (1 if e == 1 else -1)

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    )
    @settings(max_examples=300, deadline=None)
    def test_multiplicative_in_numerator(self, a, b, n):
        # not at n = -1 with a zero factor: (0|-1) = 1 (test_sign_convention)
        assume(n > 0 or a * b != 0)
        assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)

    def test_sign_convention(self):
        # (a|-1) is the sign of a, and 1 at a = 0, so (0 * -1|-1) = 1 but (0|-1)(-1|-1) = -1
        assert kronecker_symbol(0, -1) == 1
        assert kronecker_symbol(-1, -1) == -1
        assert kronecker_symbol(5, -1) == 1

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
        st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    )
    @settings(max_examples=300, deadline=None)
    def test_multiplicative_in_denominator(self, a, m, n):
        assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidArgumentError):
            kronecker_symbol(3, 0)


def order_691(p):
    """The order of p mod 691 as the hand case table reads it; 0 for p = 691."""
    j = _ORDER_CLASSES[p % 691]
    return _DIVISORS_690[j] if j < len(_DIVISORS_690) else 0


class TestMultOrder:
    def test_examples(self):
        assert multiplicative_order(1381, 691) == order_691(1381) == 2  # 1381 = -1 (mod 691)
        assert multiplicative_order(3, 691) == order_691(3) == 690
        # p = 691 has a class of its own, past the order classes
        assert order_691(691) == 0 and class_index("q691", 691)[-1] == len(_DIVISORS_690)

    def test_three_generates_by_repeated_squaring(self):
        # oracle: 3^d != 1 for every proper divisor d of 690
        for d in (2, 3, 5, 23, 345, 230, 138, 690 // 2, 690 // 3, 690 // 5, 690 // 23):
            if d < 690:
                assert pow(3, d, 691) != 1
        assert pow(3, 690, 691) == 1

    def test_order_divides_690_up_to_1e5(self):
        for p in sieve_primes(10**5).tolist():
            if p == 691:
                continue
            assert 690 % multiplicative_order(p, 691) == 0

    def test_order_table_matches_scalar(self):
        # the order of every unit mod 691, read from the discrete logs
        assert [order_691(r) for r in range(1, 691)] == [multiplicative_order(r, 691) for r in range(1, 691)]
        assert order_691(1) == 1 and order_691(690) == 2

    def test_composite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            zero_period("q691", 10)
        with pytest.raises(InvalidArgumentError):
            multiplicative_order(1382, 691)


class TestWilton:
    def test_class_data_are_those_of_s3(self):
        # S1, S2, S3 are the transpositions, 3-cycles and identity of S_3, the
        # Galois group of x^3 - x - 1; rho's trace is a permutation's number of
        # fixed points less 1
        classes = {}
        for g in itertools.permutations(range(3)):
            fixed = sum(g[i] == i for i in range(3))
            h, order = g, 1
            while h != (0, 1, 2):
                h, order = tuple(g[i] for i in h), order + 1
            classes.setdefault({1: W_S1, 0: W_S2, 3: W_S3}[fixed], []).append((order, fixed - 1))
        for c, data in classes.items():  # each element's (order, trace), once per element of the class
            assert data == [(WILTON_ORDER[c], WILTON_TRACE[c])] * WILTON_SIZE[c], c

    def test_trace_is_tau_mod_23(self):
        # Wilton's congruence tau(p) = trace (mod 23) on the primes below 2000,
        # each class by the scalar reference, tau exact; tau(23) = 1 (mod 23)
        tau = tau_exact(2000).values
        ps = trial_division_sieve(2000)
        assert {wilton_class(p) for p in ps} == {W_S1, W_S2, W_S3, W_P23}
        assert all((tau[p - 1] - WILTON_TRACE[wilton_class(p)]) % 23 == 0 for p in ps)

    def test_examples(self):
        assert wilton_class(23) == W_P23
        assert wilton_class(5) == W_S1  # (5|23) = -1
        assert wilton_class(59) == W_S3  # 59 = 6^2 + 23*1^2; 4^3 - 4 - 1 = 59
        assert (4**3 - 4 - 1) % 59 == 0
        assert wilton_class(2) == W_S2  # 2 != U^2 + 23 V^2, (2|23) = 1

    def test_cubic_classifier_examples(self):
        assert cubic_root_exists(59)
        assert not cubic_root_exists(2)
        codes = dict(zip(sieve_primes(59).tolist(), wilton_codes_cubic(59).tolist()))
        assert (codes[59], codes[2], codes[5], codes[23]) == (W_S3, W_S2, W_S1, W_P23)

    def test_dual_agreement_to_2e4(self):
        # the full 1e5 agreement runs in the acceptance suite
        np.testing.assert_array_equal(
            wilton_codes_cubic(2 * 10**4), wilton_classes(sieve_primes(2 * 10**4))
        )

    def test_split_test_matches_scan(self):
        # every prime below 5000 with (p|23) = 1, where the split test is exact
        ps = [p for p in trial_division_sieve(4999) if kronecker_symbol(p, 23) == 1]
        assert ps[:2] == [2, 3] and len(ps) > 300
        assert cubic_splits(np.array(ps)).tolist() == [cubic_root_exists(p) for p in ps]

    def test_split_test_near_int64_limit(self):
        # x^p mod (x^3 - x - 1, p) with Python ints, for primes just below the limit
        def x_pow_p(p):
            r, base, e = (1, 0, 0), (0, 1, 0), p
            while e:
                if e & 1:
                    r = mul(r, base, p)
                base, e = mul(base, base, p), e >> 1
            return r

        def mul(u, v, p):
            c = [0] * 5
            for i in range(3):
                for j in range(3):
                    c[i + j] += u[i] * v[j]
            # x^4 = x^2 + x, x^3 = x + 1
            return ((c[0] + c[3]) % p, (c[1] + c[3] + c[4]) % p, (c[2] + c[4]) % p)

        ps = [n for n in range(3 * 10**9 - 1, 3 * 10**9 - 2000, -2) if is_prime(n)][:40]
        got = cubic_splits(np.array(ps)).tolist()
        assert got == [x_pow_p(p) == (0, 1, 0) for p in ps]
        assert any(got) and not all(got)
        with pytest.raises(InvalidArgumentError):
            cubic_splits(np.array([3 * 10**9 + 19]))

    def test_scalar_cubic_classifier_matches_codes(self):
        # one prime at a time, each with a one-entry form table
        ps = sieve_primes(3000)
        assert [int(wilton_classes([p])[0]) for p in ps] == wilton_codes_cubic(3000).tolist()

    def test_vector_codes_match_scalar(self):
        codes = wilton_classes(sieve_primes(10**4))
        assert codes.tolist() == [wilton_class(p) for p in sieve_primes(10**4).tolist()]

    def test_composite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            wilton_class(25)

    @pytest.mark.parametrize("p", [-5, 0, 1])
    def test_classes_below_two_are_invalid(self, p):
        with pytest.raises(InvalidArgumentError):
            wilton_classes([p])

    def test_classes_past_the_desk_limit_are_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                wilton_classes([PRIME_DESK_LIMIT + 7])
            with pytest.raises(ResourceLimitError):
                wilton_classes([2, PRIME_DESK_LIMIT + 7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the form table from 2 to 1e8 would take 100 MB
