"""Prime sums over the Frobenius classes of the Hilbert class field of Q(sqrt(-23)).

The mpmath Chowla-Selberg reference is checked first against a lattice sum
and an Euler product; lrlab's -L'/L(s, rho), its Bessel K and the S2 and S3
class sums are then checked against it with no slack (soundness), and each
budget within 10^3 times the observed error, floored at one ulp (tightness).
log L(s, rho) and the sums of -log(1 - p^-a) over every class are checked
for soundness.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from chowla_selberg_reference import epstein, frobenius_class, frobenius_reference, l_rho, rho_log
from lrlab import lseries
from lrlab.errors import InvalidArgumentError, PreconditionError
from lrlab.lseries import frobenius_class_sum
from lrlab.primes import sieve_primes, wilton_classes
from test_primesums import assert_sound_and_tight, assert_within

SIGMAS = (2, 3, 4, 6, 8)  # the s = n a <= SIGMA_MAX of q23's a = 2, 3


class TestReference:
    def test_lattice_sum(self):
        # Z_[1,1,6](4) over |x|, |y| <= R; the rest is at most
        # lambda^-4 sum_{|v| > R} |v|^-8 <= lambda^-4 2 pi (R - 1)^-6/6, with
        # lambda = (7 - sqrt 26)/2 the smaller eigenvalue of the form, and
        # 1e-15 covers the rounding of either side
        r = 400
        x = np.arange(-r, r + 1, dtype=np.float64)
        q = x[:, None] ** 2 + x[:, None] * x + 6.0 * x**2
        q[r, r] = np.inf
        brute = math.fsum(np.sort((q**-4.0).ravel()).tolist())
        lam = (7 - math.sqrt(26)) / 2
        rest = lam**-4 * 2 * math.pi * (r - 1) ** -6 / 6
        assert -1e-15 <= float(epstein(1, 1, 4)) - brute <= rest + 1e-15

    def test_euler_product(self):
        # L(2, rho) = prod_p (1 - a(p) p^-2 + chi_-23(p) p^-4)^-1, a(p) = 2, -1, 0
        # on S3, S2, S1 and the factor (1 - 23^-2)^-1; past x the log of the
        # product is at most sum_{n > x} 3 n^-2 <= 3/(x - 1)
        x = 220_000
        log_product = math.log(1 - 23.0**-2)
        for p in sieve_primes(x).primes.tolist():
            if p != 23:
                c = frobenius_class(p)
                log_product += math.log1p(-(0, -1, 2)[c] / p**2 + (-1, 1, 1)[c] / p**4)
        assert abs(math.log(float(l_rho(2))) + log_product) <= 3 / (x - 1)

    def test_wilton_classes_are_the_frobenius_classes(self):
        primes = sieve_primes(10**4).primes
        primes = primes[primes != 23]
        wilton = wilton_classes(primes).tolist()
        assert wilton == [frobenius_class(p) for p in primes.tolist()]


class TestSoundness:
    def test_bessel_k(self):
        # every (nu, z) the Chowla-Selberg sums use: within 1e-12 relative plus 1e-44
        n = np.arange(1, 13)
        z = np.concatenate([math.pi * math.sqrt(23.0) * n, math.pi * math.sqrt(23.0) / 2 * n[1::2]])
        for s in SIGMAS:
            nu = s - 0.5
            k, dk = lseries._bessel_k(nu, z)
            with mp.workdps(30):
                for zi, ki, dki in zip(z.tolist(), k.tolist(), dk.tolist()):
                    ref = mp.besselk(nu, zi)
                    dref = mp.diff(lambda n: mp.besselk(n, zi), nu)
                    assert abs(ki - ref) <= 1e-12 * ki + 1e-44, (nu, zi)
                    assert abs(dki - dref) <= 1e-12 * dki + 1e-44, (nu, zi)

    @pytest.mark.parametrize("s", SIGMAS)
    def test_rho_log_derivative(self, s):
        assert_sound_and_tight(lseries._rho_log(s, 1), rho_log(s, 1), 0, s)

    @pytest.mark.parametrize("s", SIGMAS)
    def test_log_rho(self, s):
        assert_within(lseries._rho_log(s, 0), rho_log(s, 0), 0, s)

    @pytest.mark.parametrize("a", [2, 3])
    @pytest.mark.parametrize("c", [1, 2])
    def test_s2_and_s3(self, c, a):
        assert_sound_and_tight(frobenius_class_sum([c], a), *frobenius_reference({c}, a), (c, a))

    @pytest.mark.parametrize("a", [2, 3, 4])
    @pytest.mark.parametrize("c", [0, 1, 2])
    def test_log_sums(self, c, a):
        # sum over the class of -log(1 - p^-a), the factors of q23's identity at s = 2
        assert_within(frobenius_class_sum([c], a, 0), *frobenius_reference({c}, a, 0), (c, a))

    def test_union_of_the_classes_is_every_prime_but_23(self):
        # sum over S1, S2, S3 = -zeta'/zeta(2) less log 23/(23^2 - 1)
        total = frobenius_class_sum([0, 1, 2], 2)
        ref = -mp.zeta(2, derivative=1) / mp.zeta(2) - mp.log(23) / 528
        assert abs(mp.mpf(total.value) - ref) <= total.budget


class TestArguments:
    def test_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            frobenius_class_sum([3], 2)
        with pytest.raises(InvalidArgumentError):
            frobenius_class_sum([2], 2, derivative=2)
        with pytest.raises(PreconditionError):
            frobenius_class_sum([2], 1)
        with pytest.raises(PreconditionError):
            frobenius_class_sum([2], 2.5)

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent(self, a):
        with pytest.raises(PreconditionError):
            frobenius_class_sum([0], a)

    def test_int_exponent_past_the_float_range(self):
        with pytest.raises(InvalidArgumentError):
            frobenius_class_sum([0], 10**400)
        for s in (10**300, 2**1023, int(sys.float_info.max)):
            assert frobenius_class_sum([0], s).value == 0.0

    def test_past_sigma_max_is_direct(self):
        # S3's a = 22, 23 factors: no L-values, the direct part plus the remainder
        a = 22
        v = frobenius_class_sum([2], a)
        primes = sieve_primes(lseries.MOBIUS_P).primes.tolist()
        direct = math.fsum(math.log(p) / (p**a - 1.0) for p in primes if p != 23 and frobenius_class(p) == 2)
        assert v.value == pytest.approx(direct, rel=1e-15)
        assert v.budget < 1e-20
