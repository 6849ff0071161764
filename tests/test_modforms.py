import ast
import math
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab import modforms
from lrlab.errors import InvalidArgumentError, ResourceLimitError
from lrlab.modforms import (
    TAU_DESK_LIMIT,
    _balanced_limbs,
    _eta6_coeffs,
    _fft_square_trunc,
    _jacobi_series,
    _sigma_power_mod,
    _sparse_mul,
    _square_bounds,
    lambda_mod3,
    odd_tau_count,
    tau_exact,
    tau_mod,
)
from lrlab.primes import sieve_primes
from scalar_reference import decimal_square_trunc, tau_mod23_hecke

# first values of tau(n), long established
TAU_KNOWN = [
    1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
    534612, -370944, -577738, 401856, 1217160, 987136, -6905934, 2727432,
    10661420, -7109760,
]


def naive_delta_expansion(n_max):
    """Independent oracle: multiply out x * prod_{n <= n_max} (1 - x^n)^24."""
    coeffs = [1] + [0] * (n_max - 1)  # poly in x, degree < n_max
    for n in range(1, n_max + 1):
        for _ in range(24):
            # multiply by (1 - x^n)
            for i in range(n_max - 1, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs  # coeffs[i] = tau(i + 1)


def partitions_avoiding(n, parts):
    """Count partitions of n into the allowed parts (recursive oracle)."""

    @lru_cache(maxsize=None)
    def count(remaining, max_idx):
        if remaining == 0:
            return 1
        total = 0
        for i in range(max_idx + 1):
            if parts[i] <= remaining:
                total += count(remaining - parts[i], i)
        return total

    return count(n, len(parts) - 1)


def blocked_coin_dp_lambda_mod3(n_max):
    """Reference lambda(0..n_max) mod 3: adding part m maps a[n] += a[n-m] for
    ascending n, done in m-wide blocks so each block only reads finished values."""
    a = np.zeros(n_max + 1, dtype=np.uint8)
    a[0] = 1
    for m in range(1, n_max + 1):
        if m % 9 == 0:
            continue
        for start in range(m, n_max + 1, m):
            end = min(start + m, n_max + 1)
            a[start:end] = (a[start:end] + a[start - m : end - m]) % 3
    return a


def tau_mod23_from_eta_product(n_max):
    """tau(1..n_max) mod 23 as the coefficients of x E(x) E(x^23), E = prod (1-x^n).

    Delta = eta^24 = eta(z) eta(23z) mod 23, since (1-x^n)^23 = 1-x^(23n) mod 23.
    """
    e = np.zeros(n_max, dtype=np.int64)  # E(x) below x^n_max, by the pentagonal theorem
    k = 0
    while k * (3 * k - 1) // 2 < n_max:
        for g in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if g < n_max:
                e[g] = (-1) ** k
        k += 1
    out = np.zeros(n_max, dtype=np.int64)
    for g in np.flatnonzero(e).tolist():  # times E(x^23), one shifted copy per term
        if 23 * g < n_max:
            out[23 * g :] += e[g] * e[: n_max - 23 * g]
    return np.concatenate(([0], out % 23))


def modforms_imports():
    """Every module and name that lrlab.modforms imports, from its source."""
    imported = set()
    for node in ast.walk(ast.parse(Path(modforms.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def naive_square_trunc(coeffs, length):
    """Schoolbook square of an integer polynomial, truncated to length terms."""
    out = [0] * length
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            if i + j < length:
                out[i + j] += a * b
    return out


_coefficient = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**300), max_value=2**300),
)


class TestPolySquare:
    @given(st.lists(_coefficient, min_size=1, max_size=60), st.integers(min_value=1, max_value=130))
    @settings(max_examples=300, deadline=None)
    def test_matches_schoolbook(self, coeffs, length):
        assert decimal_square_trunc(coeffs, length) == naive_square_trunc(coeffs, length)

    def test_extreme_fields(self):
        # every coefficient at the bound, with alternating and equal signs
        big = 2**300
        for coeffs in ([big] * 60, [(-1) ** i * big for i in range(60)], [-big], [0] * 7):
            assert decimal_square_trunc(coeffs, 119) == naive_square_trunc(coeffs, 119)


_int64_coefficient = st.one_of(
    st.sampled_from([0, 1, -1, 2**46, -(2**46)]),
    st.integers(min_value=-(2**46), max_value=2**46),
)


def e12_coeffs(n):
    jacobi = _jacobi_series(n)
    return _sparse_mul(_sparse_mul(_eta6_coeffs(n), *jacobi), *jacobi)


class TestFftSquare:
    @given(st.lists(_int64_coefficient, min_size=1, max_size=60), st.integers(min_value=-70, max_value=70))
    @settings(max_examples=300, deadline=None)
    def test_matches_schoolbook(self, coeffs, offset):
        # length below, at and above len(a)
        length = max(1, len(coeffs) + offset)
        got = _fft_square_trunc(np.array(coeffs, dtype=np.int64), length)
        assert got == naive_square_trunc(coeffs, length)

    def test_edge_shapes(self):
        big = 2**46
        for coeffs in ([big], [-big], [0], [1], [-1], [big] * 60, [(-1) ** i * big for i in range(60)]):
            n = len(coeffs)
            for length in {1, max(1, n - 1), n, n + 1, 2 * n - 1, 2 * n, 3 * n + 2}:
                got = _fft_square_trunc(np.array(coeffs, dtype=np.int64), length)
                assert got == naive_square_trunc(coeffs, length), (coeffs[:2], length)

    def test_balanced_limbs_span_int64(self):
        values = [0, 1, -1, 2047, 2048, -2048, -2049, 2**46, -(2**46), 2**63 - 1, -(2**63)]
        limbs = _balanced_limbs(np.array(values, dtype=np.int64))
        assert len(limbs) == 6
        for d in limbs:
            assert d.min() >= -(2**11) and d.max() < 2**11
        assert [sum(int(d[i]) << (12 * j) for j, d in enumerate(limbs)) for i in range(len(values))] == values

    @pytest.mark.parametrize("n", [20000, TAU_DESK_LIMIT])
    def test_tau_exact_matches_decimal_square(self, n):
        assert tau_exact(n).values == decimal_square_trunc(e12_coeffs(n).tolist(), n)

    def test_headroom_at_desk_limit(self):
        # a shorter window squares prefixes of these limbs at a size no
        # larger, so its norms, its error bound and its high word only shrink
        n = TAU_DESK_LIMIT
        e12 = e12_coeffs(n)
        assert int(np.abs(e12).max()) < 2**46
        limbs = _balanced_limbs(e12)
        assert len(limbs) == 4
        rounding, high = _square_bounds(limbs, 2**18)
        assert rounding == pytest.approx(0.01797, rel=1e-3)  # recorded: 0.01797, against 1/4
        # each output limb is at most L n 2^22 in size, and the low chain
        # adds it to a carry below 2^30
        limb_max = 4 * n * 2**22
        assert limb_max < 2**41
        # the high word holds limbs 5 and 6 (shifted by 12) and the carry
        assert limb_max * (1 + 2**12) + 2**30 < 2**62
        assert high < 2**62

    def test_rounding_bound_raises_before_any_transform(self, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("a transform ran")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        monkeypatch.setattr(np.fft, "irfft", no_transform)
        # every limb at -2^11, so S_3 = 4 * 2^22 * 2^19 and the bound is about 0.43
        a = np.full(2**19, -2048 * (1 + 2**12 + 2**24 + 2**36), dtype=np.int64)
        with pytest.raises(OverflowError, match="error bound"):
            _fft_square_trunc(a, len(a))

    def test_high_word_raises_instead_of_wrapping(self):
        assert _fft_square_trunc(np.array([2**60], dtype=np.int64), 1) == [2**120]
        for top in (2**62, -(2**63)):
            with pytest.raises(OverflowError, match="high word"):
                _fft_square_trunc(np.array([top, 0], dtype=np.int64), 2)

    def test_rounding_far_from_an_integer_raises(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda spec, size: irfft(spec, size) + 0.3)
        with pytest.raises(OverflowError, match="integer"):
            _fft_square_trunc(np.array([3, 4], dtype=np.int64), 3)

    def test_modforms_imports_no_decimal(self):
        # the Decimal route is the test reference, not a second path
        assert "decimal" not in modforms_imports()

    def test_tracemalloc_peak_at_desk_limit(self):
        # one output limb at a time, and the spectra freed before the Python
        # ints are built: holding all seven inverse transforms adds about 13 MB
        tau_exact.cache_clear()
        tracemalloc.start()
        try:
            tau_exact(TAU_DESK_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 10**6, peak  # measured: 20.1 MB


class TestSparsePasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 5000])
    def test_e12_matches_decimal_square(self, n):
        jacobi = _jacobi_series(n)
        e12 = _sparse_mul(_sparse_mul(_eta6_coeffs(n), *jacobi), *jacobi)
        assert e12.tolist() == decimal_square_trunc(_eta6_coeffs(n).tolist(), n)

    def test_int64_headroom_at_desk_limit(self):
        # a shorter window truncates the same series: its terms and its
        # coefficients are prefixes of these, so both factors only shrink
        expo, coeff = _jacobi_series(TAU_DESK_LIMIT)
        l1 = int(np.abs(coeff).sum())
        e6 = _eta6_coeffs(TAU_DESK_LIMIT)
        e9 = _sparse_mul(e6, expo, coeff)
        for a in (e6, e9):
            assert l1 * int(np.abs(a).max()) < 2**63

    def test_raises_instead_of_wrapping(self):
        expo, coeff = np.array([0, 1]), np.array([1, 1])
        top = 2**62 - 1  # 2 * top is the largest bound that still fits
        assert _sparse_mul(np.array([top, top]), expo, coeff).tolist() == [top, 2 * top]
        with pytest.raises(OverflowError):
            _sparse_mul(np.array([top + 1, 0]), expo, coeff)


class TestTauExact:
    def test_known_values(self):
        w = tau_exact(len(TAU_KNOWN))
        assert w.values == TAU_KNOWN

    def test_against_naive_expansion(self):
        assert tau_exact(200).values == naive_delta_expansion(200)

    def test_examples(self):
        w = tau_exact(10)
        assert w.tau(1) == 1
        assert w.tau(2) == -24
        assert w.tau(5) == 4830
        assert w.tau(5) % 5 == 0 and w.tau(5) % 23 == 0

    def test_multiplicative_on_coprime(self):
        # tau(n) = tau(p^k) tau(n / p^k) for the smallest prime p | n, over the
        # whole window: by induction, tau(mn) = tau(m) tau(n) for coprime m, n
        n_max = 20000
        w = tau_exact(n_max)
        spf = list(range(n_max + 1))
        for p in range(2, math.isqrt(n_max) + 1):
            if spf[p] == p:
                for m in range(p * p, n_max + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        for n in range(2, n_max + 1):
            pk = spf[n]
            while n % (pk * spf[n]) == 0:
                pk *= spf[n]
            if pk != n:
                assert w.tau(n) == w.tau(pk) * w.tau(n // pk), n

    def test_hecke_recursion(self):
        w = tau_exact(20000)
        for p in sieve_primes(math.isqrt(20000)).primes.tolist():
            k = 1
            while p ** (k + 1) <= 20000:
                assert w.tau(p ** (k + 1)) == w.tau(p) * w.tau(p**k) - p**11 * w.tau(
                    p ** (k - 1)
                )
                k += 1

    def test_limits(self):
        with pytest.raises(InvalidArgumentError):
            tau_exact(0)
        with pytest.raises(ResourceLimitError):
            tau_exact(200_000)


@pytest.mark.parametrize(
    "oracle, args",
    [
        (tau_exact, (100.0,)),
        (tau_exact, ("100",)),
        (tau_mod, (3, 100.0)),
        (tau_mod, (23, 100.0)),
        (tau_mod, (691, 1e3)),
        (lambda_mod3, (100.0,)),
        (lambda_mod3, (0.5,)),
    ],
)
def test_non_integer_n_max_is_invalid(oracle, args):
    if oracle is tau_exact:
        tau_exact(100)  # a cached 100 must not answer for 100.0
    with pytest.raises(InvalidArgumentError, match="n_max must be an integer"):
        oracle(*args)


class TestTauMod:
    def test_examples(self):
        assert tau_mod(23, 10)[2] == 22  # tau(2) = -24 = -1 (mod 23)
        assert tau_mod(691, 1500)[1381] == 0
        t5 = tau_mod(5, 10)
        assert t5[6] == (-6048) % 5 == (6 * 12) % 5  # 6*sigma_1(6) = 72

    def test_matches_exact_to_2000(self):
        w = tau_exact(2000)
        for q in (2, 3, 5, 7, 23, 691):
            tm = tau_mod(q, 2000)
            for n in (1, 2, 3, 23, 30, 691, 692, 1381, 1999, 2000):
                assert tm[n] == w.tau(n) % q, (q, n)

    def test_unsupported_modulus(self):
        with pytest.raises(InvalidArgumentError):
            tau_mod(11, 100)

    def test_mod23_matches_eta_product(self):
        # the same product, written out densely with the pentagonal terms as a loop
        got = tau_mod(23, 10**5)
        assert got.dtype == np.int64
        assert np.array_equal(got, tau_mod23_from_eta_product(10**5))

    def test_mod23_edge_windows(self):
        # windows that end just below, at and above 23 and 23^2
        for n_max in (1, 2, 3, 22, 23, 24, 529, 530):
            exact = np.array([0] + [t % 23 for t in tau_exact(n_max).values])
            assert np.array_equal(tau_mod(23, n_max), exact), n_max

    def test_mod23_matches_hecke_assembly(self):
        # Wilton's classes with the Hecke recursion against the eta product
        for n_max in (1, 2, 3, 22, 23, 24, 529, 530, 10**6):
            assert np.array_equal(tau_mod(23, n_max), tau_mod23_hecke(n_max)), n_max

    def test_modforms_imports_nothing_from_primes(self):
        imported = modforms_imports()
        assert not imported & {"primes", "lrlab.primes"}, imported

    def test_sigma_power_mod_matches_divisor_sum(self):
        for power, q in ((1, 3), (1, 5), (3, 7), (11, 691)):
            for n_max in (1, 2, 3, 15, 16, 17, 500):
                naive = [0] + [
                    sum(d**power for d in range(1, n + 1) if n % d == 0) % q
                    for n in range(1, n_max + 1)
                ]
                assert _sigma_power_mod(n_max, power, q).tolist() == naive, (power, q, n_max)


class TestLambdaMod3:
    def test_small_values_against_enumeration(self):
        lam = lambda_mod3(30)
        parts = [m for m in range(1, 31) if m % 9 != 0]
        assert lam[0] == 1  # empty partition
        for n in (1, 2, 3, 4, 9, 12, 20, 30):
            assert lam[n] == partitions_avoiding(n, parts) % 3, n

    def test_quoted_counts(self):
        # lambda(4) = 5, lambda(9) = 29 = p(9) - 1
        parts = [m for m in range(1, 10) if m % 9 != 0]
        assert partitions_avoiding(4, parts) == 5
        assert partitions_avoiding(9, parts) == 29
        lam = lambda_mod3(9)
        assert lam[4] == 2 and lam[9] == 2

    def test_matches_coin_dp(self):
        got = lambda_mod3(5000)
        assert got.dtype == np.uint8
        assert np.array_equal(got, blocked_coin_dp_lambda_mod3(5000))

    def test_small_windows_and_multiples_of_9(self):
        around_9k = [9 * k + d for k in (1, 2, 3, 12, 37, 111) for d in (-1, 0, 1)]
        for n_max in list(range(31)) + around_9k:
            assert np.array_equal(lambda_mod3(n_max), blocked_coin_dp_lambda_mod3(n_max)), n_max

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            lambda_mod3(200_000)


class TestOddTauCount:
    def test_examples(self):
        assert odd_tau_count(100) == 5  # 1, 9, 25, 49, 81
        assert odd_tau_count(1) == 1
        assert odd_tau_count(80) == 4

    def test_counts_odd_squares(self):
        for x in range(1, 3000):
            direct = sum(1 for j in range(1, math.isqrt(x) + 1, 2) if j * j <= x)
            assert odd_tau_count(x) == direct

    def test_matches_tau_parity(self):
        w = tau_exact(2000)
        parity = np.cumsum([t % 2 for t in w.values])
        for x in (1, 2, 10, 99, 100, 1024, 2000):
            assert int(parity[x - 1]) == odd_tau_count(x)
