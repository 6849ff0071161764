import math
import subprocess
import sys
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from lrlab import constants
from lrlab.budget import ValueWithBudget
from lrlab.constants import (
    CLAIM_FALSE,
    INCONCLUSIVE,
    TABLE1_PRINTED,
    b691_approx,
    b691_character_sums,
    first_order_C5,
    landau_ramanujan_K,
    second_order_constant,
    table1,
)
from lrlab.errors import ConsistencyError, InvalidArgumentError, UnsupportedCaseError
from lrlab.lseries import _EPS, _log_l_table, _rounded, gamma_k, zeta_value
from lrlab.multfn import TABLE_CASES, get_case
from euler_reference import with_euler
from mobius_reference import _dlogs, reference
from test_lseries import l_reference

@pytest.fixture(scope="module")
def reports():
    return {r.case: r for r in table1()}


class TestAssemblies:
    def test_b_values_against_printed(self, reports):
        # printed decimals are truncations: +0.1638 means [0.1638, 0.1639),
        # -0.3995 means (-0.3996, -0.3995]
        for tag in ("two_squares", "q5", "q7", "q3"):
            b = reports[tag].b_f
            printed = TABLE1_PRINTED[tag][2]
            lo, hi = sorted((printed, printed + (1e-4 if printed >= 0 else -1e-4)))
            assert lo - 2e-6 <= b.value <= hi + 2e-6, (tag, b.value)

    def test_c2_identity_exact(self, reports):
        for tag, r in reports.items():
            ident = (1.0 - float(r.tau)) * (1.0 + r.b_f.value)
            assert r.c2.value == pytest.approx(ident, abs=1e-15)

    def test_identity_on_printed_values(self):
        # (1 - tau)(1 + B_printed) reproduces the printed C2 within one unit
        # in the fourth decimal for the five rows the reference table gets right
        for tag in ("two_squares", "q5", "q7", "q3", "q691"):
            _, _, b_printed, c2_printed, delta = TABLE1_PRINTED[tag]
            tau = 1 - delta
            ident = (1 - float(tau)) * (1 + b_printed)
            assert abs(ident - c2_printed) <= 1.01e-4, tag

    def test_cross_method_agreement(self, reports):
        # H_f(1e6) approximates B_f within 2e-3 for every case
        for tag, r in reports.items():
            h6 = dict(r.h_checkpoints)[10**6].value
            assert abs(h6 - r.b_f.value) <= 2e-3, tag

    def test_q3_forms_agree(self, reports):
        # the zeta(2s)^-2 rewrite of q3's direct factorization: (1 - p^-2s)^-2 on
        # every class, and zeta(2s)^-2, which adds -(1/n) 2 (-2) zeta'/zeta(2) to B_f
        spec = get_case("q3")
        moved = tuple(factor + ((-2, 2),) for factor in spec.euler.classes)
        rewrite = constants._b_from_euler(with_euler(spec, replace(spec.euler, classes=moved)))
        rewrite = rewrite + 2 * (zeta_value(2, 1) / zeta_value(2))
        assert rewrite.agrees_with(reports["q3"].b_f)

    def test_q23_flag(self, reports):
        r = reports["q23"]
        assert r.c2_printed_reference == 0.6083
        assert abs(r.c2.value - 0.3917) <= 1e-4
        assert r.notes

    def test_q3_lambda_companion(self, reports):
        r = reports["q3"]
        expected = r.c2.value - 0.5 * math.log(3)
        assert r.lambda_c2.value == pytest.approx(expected, abs=1e-15)
        assert abs(r.lambda_c2.value - 0.5) > r.lambda_c2.budget

    def test_table_sieves_only_to_the_checkpoints(self, src_env):
        # every class sum is exact, so the largest prime table a cold table1
        # builds is the one for H_f(1e6)
        script = "import lrlab; from lrlab import primes; lrlab.table1(); print(primes._largest_limit)"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 10**6

    def test_q2_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            second_order_constant("q2")

    def test_table1_rejects_a_bare_string(self):
        with pytest.raises(UnsupportedCaseError, match="collection of tags"):
            table1("q5")

    @pytest.mark.parametrize("tags", [[], ["q5"], ["q23", "two_squares"]])
    def test_table1_takes_a_generator_like_its_list(self, tags):
        # an empty generator is truthy, yet selects what [] selects: every row
        assert table1(t for t in tags) == table1(tags)


@pytest.fixture(scope="module")
def q691_row():
    """q691's B_f from its table row."""
    return table1(cases=["q691"])[0].b_f


class TestB691:
    def test_character_sums(self):
        odd, even = b691_character_sums()
        assert odd.value.real == pytest.approx(1.9018228, abs=1e-5)
        assert even.value.real == pytest.approx(5.10942407, abs=1e-5)

    def test_b691(self, q691_row):
        b = b691_approx()
        assert b.value == pytest.approx(-0.5717, abs=2e-4)
        assert q691_row.budget < 1e-6
        # the paper's formula leaves out the four residual products, whose
        # share is below 1e-5 (test_omitted_products)
        assert abs(q691_row.value - b.value) <= 1e-5 + q691_row.budget + b.budget

    def test_omitted_products(self, q691_row):
        share = q691_row.value - b691_approx().value
        assert abs(share) < 1e-5
        # first 1381 term is included: log(1381)/(1381^2 - 1)
        assert share > math.log(1381) / (1381**2 - 1) / 2

    def test_omitted_products_without_float_exceptions(self, q691_row):
        # p^690 overflows binary64 for every p = 1 (mod 691), and p^(-690)
        # underflows; neither may be computed
        spec = get_case("q691")
        with np.errstate(all="raise"):
            row = constants._b_from_euler(spec)
            b = b691_approx()
        assert row.value == q691_row.value
        # the four residual products, -(1/690) sum over the order classes of
        # c a sum_p log p/(p^a - 1), against 30-digit class sums; the last
        # class, p = 691, is b691_approx's (log 691)/690^2
        share, bound = mp.mpf(0), 0.0
        with mp.workdps(30):
            for j, factor in enumerate(spec.euler.classes[:-1]):
                for c, a in factor:
                    ref, ref_bound = reference(691, spec.class_residues(j), a)
                    share -= mp.mpf(c * a) / 690 * ref
                    bound += abs(c * a) / 690 * ref_bound
            err = abs(mp.mpf(row.value) - mp.mpf(b.value) - share) + bound
        assert err <= row.budget + b.budget


class TestLRatios:
    @pytest.mark.parametrize("m", [3, 4, 5, 7, 23, 691])
    def test_dft_against_l_derivatives(self, m):
        # -L'/L(1, chi^j) from the table against references built here from
        # exact characters: mpmath's Stieltjes constants for m <= 23 (every
        # character), and for 691 a direct fsum of chi(r) gamma_k(r, 691) over
        # 20 characters (the two quadratic neighbours, the ends, a spread)
        y, dy = _log_l_table(m, 1, 1)
        assert np.isnan(y[0]), "the principal character has no L'/L(1)"
        dlog, phi = _dlogs(m)
        if m < 691:
            for j in range(1, phi):
                chi = [mp.expjpi(mp.mpf(2 * j * int(a)) / phi) if a >= 0 else 0 for a in dlog]
                ref = -l_reference(m, chi, 1) / l_reference(m, chi, 0)
                assert abs(mp.mpc(complex(y[j])) - ref) <= dy[j], (m, j)
            return
        roots = [complex(mp.expjpi(mp.mpf(2 * t) / phi)) for t in range(phi)]
        units = [r for r in range(1, m) if dlog[r] >= 0]
        batch = [[gamma_k(r, m, k) for r in units] for k in (0, 1)]
        for j in sorted({1, 2, 344, 345, 346, 689, *range(5, 690, 50)}):
            chi = [roots[j * int(dlog[r]) % phi] for r in units]
            sums = []
            for g in batch:
                terms = [c * v.value for c, v in zip(chi, g)]
                value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                # each chi(r) and product is off by an ulp, fsum by half an ulp
                budget = math.fsum(v.budget for v in g) + 4 * _EPS * math.fsum(abs(v.value) for v in g)
                sums.append((value, budget))
            (l0, b0), (l1, b1) = sums  # L(1, chi) and -L'(1, chi)
            ref = l1 / l0
            ref_budget = (b1 + abs(ref) * b0) / (abs(l0) - b0) + 4 * _EPS * abs(ref)
            assert abs(complex(y[j]) - ref) <= dy[j] + ref_budget, (m, j)


class TestFirstOrder:
    def test_gamma_3_4_is_correctly_rounded(self):
        # C5's divisor: the literal lies within its half-ulp budget of Gamma(3/4)
        # (math.gamma(0.75) lies 0.99 ulp off, so a one-ulp budget held by 1%)
        with mp.workdps(40):
            exact = mp.gamma(mp.mpf(3) / 4)
            assert float(exact) == constants._GAMMA_3_4
            assert abs(mp.mpf(constants._GAMMA_3_4) - exact) <= math.ulp(constants._GAMMA_3_4) / 2

    def test_landau_K(self):
        k = landau_ramanujan_K()
        assert k.value == pytest.approx(0.764, abs=5e-4)
        assert k.value == pytest.approx(0.76422365358922, abs=1e-6)

    def test_one_factor_truncation(self):
        # only p = 3 contributes below 5: (1/sqrt2) (1 - 1/9)^(-1/2) = 0.75; the
        # factors over 7 <= p <= 1e5 come from a direct product, and those past 1e5
        # raise it by exp(t), 0 <= t <= (1/2) sum_{n > 1e5} 1/(n^2 - 1) <= 1/(2 1e5)
        k = landau_ramanujan_K()
        one = 2.0**-0.5 * (1.0 - 1.0 / 9.0) ** -0.5
        assert one == pytest.approx(0.75, abs=1e-15)

        from lrlab.primes import sieve_primes

        p = sieve_primes(10**5).astype(np.float64)
        p = p[(p >= 7) & (p % 4 == 3)]
        rest = math.exp(-0.5 * math.fsum(np.log1p(-(p**-2.0)).tolist()))
        lo, hi = 0.75 * rest, 0.75 * rest * math.exp(0.5e-5)
        # the direct product is good to 1e-13 relative (fsum of logs off by 1 ulp each)
        assert lo * (1 - 1e-13) - k.budget <= k.value <= hi * (1 + 1e-13) + k.budget

    def test_doubling_cutoff_within_budget(self):
        # products truncated at x and 2x: K_x <= K_2x <= K <= K_x exp(1/(2x)),
        # the last from (1/2) sum_{n > x} 1/(n^2 - 1) <= 1/(2x); K's budget is
        # far below either tail
        k = landau_ramanujan_K()

        from lrlab.primes import sieve_primes

        p = sieve_primes(2 * 10**6).astype(np.float64)
        p = p[p % 4 == 3]

        def truncated(x):
            q = p[p <= x]
            return 2.0**-0.5 * math.exp(-0.5 * math.fsum(np.log1p(-(q**-2.0)).tolist()))

        k1, k2 = truncated(10**6), truncated(2 * 10**6)
        assert k1 < k2
        for x, kx in ((10**6, k1), (2 * 10**6, k2)):
            assert kx * (1 - 1e-13) <= k.value + k.budget
            assert k.value - k.budget <= kx * math.exp(0.5 / x) * (1 + 1e-13)
        assert k.budget < (k2 - k1) / 100

    def test_two_squares_c1_from_the_table(self):
        # C1 = g(1)/Gamma(1/2) for T(s)^2 = zeta(s) g(s)^2 is K, from the closed product
        spec = get_case("two_squares")
        log_g = constants._log_g(spec, 1, 0, 0.0)
        c1 = constants._exp(log_g / spec.euler.n) / _rounded(math.sqrt(math.pi))
        assert c1.agrees_with(landau_ramanujan_K())

    def test_c5_checks_its_l_values(self, monkeypatch):
        monkeypatch.setattr(constants, "closed_form_l_values", lambda tag: 1.0)
        with pytest.raises(ConsistencyError):
            first_order_C5()

    def test_empty_product_prefactor(self):
        # D over no primes leaves C = (4/(5 Gamma(3/4))) (pi^2/(2 sqrt5 log((3+sqrt5)/2)))^(1/4);
        # dividing it back out must recover D, cross-checked by a direct product
        pref = (4.0 / (5.0 * math.gamma(0.75))) * (
            math.pi**2 / (2.0 * math.sqrt(5.0) * math.log((3.0 + math.sqrt(5.0)) / 2.0))
        ) ** 0.25
        c = first_order_C5()
        d_alone = c.value / pref

        from lrlab.primes import sieve_primes

        d_direct = 1.0
        for p in sieve_primes(10**4).tolist():
            r = p % 5
            if r == 1:
                d_direct *= (1 - p**-4.0) / (1 - p**-5.0)
            elif r in (2, 3):
                d_direct *= (1 - p**-3.0) / ((1 - p**-2.0) ** 0.5 * (1 - p**-4.0) ** 0.75)
            elif r == 4:
                d_direct *= (1 - p**-2.0) ** -0.5
        assert d_alone == pytest.approx(d_direct, abs=1e-4)


class TestVerdicts:
    def test_all_claim_false(self, reports):
        for tag, r in reports.items():
            assert r.verdict == CLAIM_FALSE, tag
            assert abs(r.c2.value - float(r.c2_ramanujan)) > r.c2.budget

    @pytest.mark.parametrize("tag", TABLE_CASES)
    def test_the_printed_claim_is_the_refuted_claim(self, tag):
        # the table's last column, the claimed C2, is the delta the verdict refutes
        assert TABLE1_PRINTED[tag][4] == second_order_constant(tag).c2_ramanujan == get_case(tag).delta

    @pytest.mark.parametrize("tag", TABLE_CASES)
    def test_a_report_carries_its_verdict(self, tag):
        # the cached report is the table's row, verdict and all
        r = second_order_constant(tag)
        assert r is table1([tag])[0]
        assert r.verdict == CLAIM_FALSE

    def test_hypothetical_zero_b_inconclusive(self, monkeypatch):
        # B_f = 0 within its budget, as the claimed form needs; the renamed
        # copy of q5's spec keeps the cached q5 report out of it
        monkeypatch.setattr(constants, "_b_from_euler", lambda spec: ValueWithBudget(0.0, 1e-6))
        r = second_order_constant(replace(get_case("q5"), tag="q5-claimed"))
        assert r.c2.value == float(r.delta) and r.verdict == INCONCLUSIVE

    @pytest.mark.parametrize("field, value", [
        ("case", 5), ("tau", 0.75), ("delta", None), ("b_f", -0.4), ("c2", "0.15"), ("c2_ramanujan", 0.25),
        ("h_checkpoints", [(10**5, -0.4)]), ("verdict", "TRUE"), ("verdict", None), ("verdict", [CLAIM_FALSE]),
    ])
    def test_a_report_checks_its_fields(self, field, value):
        r = second_order_constant("q5")
        with pytest.raises(InvalidArgumentError):
            replace(r, **{field: value})
        assert replace(r, verdict=INCONCLUSIVE).verdict == INCONCLUSIVE

    def test_row_order(self):
        tags = [r.case for r in table1()]
        assert tags == ["two_squares", "q5", "q7", "q3", "q691", "q23"]
