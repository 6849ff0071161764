"""Verification gate: every computed quantity against its reference target.

Each check returns a CheckResult; the CLI `verify` subcommand prints one
PASS/FAIL line per check and exits 0 iff everything passed.  Printed
reference values ending in "..." are truncated decimals, so "matches to d
decimals" means the computed value truncates to the same d digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as co
from . import identities as idn
from . import lseries as ls
from . import modforms as mf
from . import multfn as mu
from . import primes as pr
from .characters import generator_character, kronecker_character

__all__ = ["CheckResult", "run_checks", "matches_truncated", "ALL_CASES"]

ALL_CASES = ("two_squares", "q5", "q7", "q3", "q691", "q23", "q2")


@dataclass(frozen=True)
class CheckResult:
    name: str
    case: str
    passed: bool
    detail: str


# Widens every truncation interval, for values within rounding of a decimal boundary.
TRUNCATION_SLACK = 1e-9


def matches_truncated(value: float, printed: float, decimals: int) -> bool:
    """True if ``value`` truncates to the printed ``decimals``-digit decimal.

    A printed value like -0.401 (with trailing dots) means the true value
    lies in (-0.402, -0.401]; +0.163 means [0.163, 0.164), each widened by
    TRUNCATION_SLACK.
    """
    step, slack = 10.0**-decimals, TRUNCATION_SLACK
    if printed >= 0:
        return printed - slack <= value < printed + step + slack
    return printed - step - slack < value <= printed + slack


def _res(name, case, passed, detail) -> CheckResult:
    return CheckResult(name, case, bool(passed), detail)


def _fifth_digit(b: float) -> int:
    return int(abs(b) * 1e5) % 10


# ---------------------------------------------------------------------------
# Criterion 1: the six-row table
# ---------------------------------------------------------------------------

def _check_table_row(report) -> list[CheckResult]:
    tag = report.case
    h5_ref, h6_ref, b_ref, c2_ref, _ = co.TABLE1_PRINTED[tag]
    out = []
    (x5, h5), (x6, h6) = ((x, h.value) for x, h in report.h_checkpoints[:2])
    out.append(
        _res(
            "table1/H_f(1e5)",
            tag,
            matches_truncated(h5, h5_ref, 3),
            f"H({x5}) = {h5:.6f}, printed {h5_ref}",
        )
    )
    if tag == "q691":
        # The printed H(1e6) cell (-0.571) is inconsistent with the defining
        # sum, which evaluates to -0.5721 (see the report note); check the
        # cross-method invariant |H(1e6) - B_f| <= 0.002 instead and flag it.
        ok = abs(h6 - report.b_f.value) <= 2e-3 and any("H_f(1e6)" in n for n in report.notes)
        out.append(
            _res(
                "table1/H_f(1e6)",
                tag,
                ok,
                f"H({x6}) = {h6:.6f} (printed cell {h6_ref} is irreproducible from "
                f"the definition; |H - B_f| = {abs(h6 - report.b_f.value):.1e} <= 2e-3, flagged)",
            )
        )
    else:
        out.append(
            _res(
                "table1/H_f(1e6)",
                tag,
                matches_truncated(h6, h6_ref, 3),
                f"H({x6}) = {h6:.6f}, printed {h6_ref}",
            )
        )
    b = report.b_f.value
    if tag == "q23":
        # printed -0.2166... with the (stated) fifth digit left open; the
        # operational tolerance for this row is 1e-4 around -0.21666
        ok = matches_truncated(b, b_ref, 4) and abs(b - (-0.21666)) <= 1e-4
        out.append(
            _res(
                "table1/B_f",
                tag,
                ok,
                f"B = {b:.7f} ± {report.b_f.budget:.1e}, printed {b_ref} "
                f"(computed fifth digit {_fifth_digit(b)})",
            )
        )
    else:
        out.append(
            _res(
                "table1/B_f",
                tag,
                matches_truncated(b, b_ref, 4),
                f"B = {b:.7f} ± {report.b_f.budget:.1e}, printed {b_ref}",
            )
        )
    ident = (1.0 - float(report.tau)) * (1.0 + b)
    out.append(
        _res(
            "table1/C2-identity",
            tag,
            abs(report.c2.value - ident) <= 1e-15 * (1.0 + abs(ident)),
            f"C2 = {report.c2.value:.10f} vs (1-tau)(1+B) = {ident:.10f}",
        )
    )
    if tag == "q23":
        ok = abs(report.c2.value - 0.3917) <= 1e-4 and report.c2_printed_reference == c2_ref
        out.append(
            _res(
                "table1/C2",
                tag,
                ok,
                f"C2 = {report.c2.value:.6f} (identity value, vs 0.3917; printed table "
                f"has {c2_ref}, flagged: {bool(report.notes)})",
            )
        )
    else:
        out.append(
            _res(
                "table1/C2",
                tag,
                matches_truncated(report.c2.value, c2_ref, 4),
                f"C2 = {report.c2.value:.6f}, printed {c2_ref}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# Criterion 2: quoted L-values
# ---------------------------------------------------------------------------

def _check_l_values() -> list[CheckResult]:
    out = []
    chi5 = generator_character(5, 2)
    chic = generator_character(5, 1)
    r5 = (ls.l_derivative_at_1(chi5, 1) / ls.l_derivative_at_1(chi5, 0)).value
    out.append(
        _res(
            "lvalues/L'/L(chi_5)",
            "q5",
            abs(r5.real - 0.82767947) <= 1e-6 and abs(r5.imag) <= 1e-6,
            f"{r5.real:.8f} vs 0.82767947 ± 1e-6",
        )
    )
    rc = (ls.l_derivative_at_1(chic, 1) / ls.l_derivative_at_1(chic, 0)).value
    out.append(
        _res(
            "lvalues/L'/L(chi_c mod 5)",
            "q5",
            abs(rc.real - 0.15786453) <= 1e-6 and abs(rc.imag - (-0.08833613)) <= 1e-6,
            f"{rc.real:.8f} {rc.imag:+.8f}i vs 0.15786453 - 0.08833613i ± 1e-6",
        )
    )
    lp7 = ls.l_derivative_at_1(kronecker_character(-7), 1).value.real
    out.append(
        _res("lvalues/L'(chi_-7)", "q7", abs(lp7 - 0.01856598) <= 1e-6, f"{lp7:.8f} vs 0.01856598")
    )
    lp23 = ls.l_derivative_at_1(kronecker_character(-23), 1).value.real
    out.append(
        _res(
            "lvalues/L'(chi_-23)",
            "q23",
            abs(lp23 - (-0.82955295)) <= 1e-6,
            f"{lp23:.8f} vs -0.82955295",
        )
    )
    l7 = ls.l_derivative_at_1(kronecker_character(-7), 0).value.real
    out.append(
        _res(
            "lvalues/L(chi_-7)=pi/sqrt7",
            "q7",
            abs(l7 - ls.closed_form_l_values("chi_minus7")) <= 1e-8,
            f"{l7:.10f} vs {ls.closed_form_l_values('chi_minus7'):.10f}",
        )
    )
    l23 = ls.l_derivative_at_1(kronecker_character(-23), 0).value.real
    out.append(
        _res(
            "lvalues/L(chi_-23)=3pi/sqrt23",
            "q23",
            abs(l23 - ls.closed_form_l_values("chi_minus23")) <= 1e-8,
            f"{l23:.10f} vs {ls.closed_form_l_values('chi_minus23'):.10f}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Criterion 3: the q691 character sums
# ---------------------------------------------------------------------------

def _check_q691(row_b) -> list[CheckResult]:
    """The paper's character-sum formula, against its printed values and the table row."""
    out = []
    odd, even = co.b691_character_sums()
    out.append(
        _res(
            "q691/odd-character-sum",
            "q691",
            abs(odd.value.real - 1.9018228) <= 1e-5 and abs(odd.value.imag) <= 1e-8,
            f"{odd.value.real:.8f} vs 1.9018228 ± 1e-5 (|imag| = {abs(odd.value.imag):.1e})",
        )
    )
    out.append(
        _res(
            "q691/even-character-sum",
            "q691",
            abs(even.value.real - 5.10942407) <= 1e-5 and abs(even.value.imag) <= 1e-8,
            f"{even.value.real:.8f} vs 5.10942407 ± 1e-5 (|imag| = {abs(even.value.imag):.1e})",
        )
    )
    b = co.b691_approx()
    out.append(
        _res("q691/b691", "q691", abs(b.value - (-0.5717)) <= 2e-4, f"{b.value:.7f} vs -0.5717 ± 2e-4")
    )
    share = row_b.value - b.value  # the four residual products the formula leaves out
    out.append(
        _res(
            "q691/omitted-products",
            "q691",
            abs(share) < 1e-5,
            f"|B_f - b691| = |{share:.3e}| < 1e-5 (budgets {row_b.budget:.1e} + {b.budget:.1e})",
        )
    )
    return out


# ---------------------------------------------------------------------------
# Criterion 4 / 5: explicit constants
# ---------------------------------------------------------------------------

def _check_q3_forms(q3_report) -> list[CheckResult]:
    rewrite = q3_report.b_f
    direct = co.q3_direct_b()
    out = [
        _res(
            "q3/B-rewrite",
            "q3",
            abs(rewrite.value - (-0.5349219)) <= 1e-5,
            f"{rewrite.value:.7f} vs -0.5349219 ± 1e-5",
        ),
        _res(
            "q3/forms-agree",
            "q3",
            rewrite.agrees_with(direct),
            f"rewrite {rewrite.value:.8f} vs direct {direct.value:.8f} "
            f"(budgets {rewrite.budget:.1e} + {direct.budget:.1e})",
        ),
    ]
    return out


def _check_first_order(by_case) -> list[CheckResult]:
    """K and C2 from the two_squares report, C from the q5 report (either may be absent)."""
    out = []
    if "two_squares" in by_case:
        k = by_case["two_squares"].first_order
        c2b = by_case["two_squares"].c2
        out += [
            _res("constants/K", "two_squares", abs(k.value - 0.764) <= 5e-4, f"K = {k.value:.7f} vs 0.764 ± 5e-4"),
            _res(
                "constants/two-squares-C2",
                "two_squares",
                abs(c2b.value - 0.5819) <= 5e-4,
                f"C2 = {c2b.value:.7f} vs 0.5819 ± 5e-4",
            ),
            _res(
                "constants/two-squares-C2-shanks",
                "two_squares",
                abs(c2b.value - 0.5819486) <= 1e-4,
                f"C2 = {c2b.value:.7f} vs 0.5819486 ± 1e-4",
            ),
        ]
    if "q5" in by_case:
        c5 = by_case["q5"].first_order
        out.append(
            _res("constants/first-order-q5-consistent", "q5", c5.budget < 1e-4, f"C = {c5}")
        )
    return out


# ---------------------------------------------------------------------------
# Criterion 6: oracle equivalence suites
# ---------------------------------------------------------------------------

def _check_oracles() -> list[CheckResult]:
    out = []
    n_max = 20_000
    window = mf.tau_exact(n_max)
    tau_arr = window.values
    for q, tag in ((2, "q2"), (3, "q3"), (5, "q5"), (7, "q7"), (23, "q23"), (691, "q691")):
        shortcut = mf.tau_mod(q, n_max)[1:]
        exact = np.array([t % q for t in tau_arr], dtype=np.int64)
        ok = np.array_equal(shortcut, exact)
        out.append(_res("oracle/tau-congruence", tag, ok, f"tau mod {q} on n <= {n_max}"))
        fs = mu.f_sieve(tag, n_max)[1:]
        ok = np.array_equal(fs, exact != 0)
        out.append(_res("oracle/f-vs-tau", tag, ok, f"f(n) = [tau(n) mod {q} != 0], n <= {n_max}"))

    sq = np.zeros(n_max + 1, dtype=bool)
    for u in range(0, math.isqrt(n_max) + 1):
        v2 = np.arange(0, math.isqrt(n_max - u * u) + 1)
        sq[u * u + v2 * v2] = True
    ok = np.array_equal(mu.f_sieve("two_squares", n_max)[1:], sq[1:])
    out.append(_res("oracle/f-vs-tau", "two_squares", ok, f"two-square representability, n <= {n_max}"))

    zeros = np.flatnonzero(~mu.f_sieve("q691", 11053))[1:]
    expected = sorted([1381 * m for m in range(1, 9)] + [5527, 8291])
    out.append(
        _res(
            "oracle/q691-zero-set",
            "q691",
            zeros.tolist() == expected,
            f"zeros below 11054: {zeros.tolist()}",
        )
    )

    parity = np.cumsum([t % 2 for t in tau_arr[: 10**4]])
    ok = all(int(parity[x - 1]) == mf.odd_tau_count(x) for x in range(1, 10**4 + 1))
    out.append(_res("oracle/parity-count", "q2", ok, "#odd tau(n<=x) = floor((1+sqrt x)/2), x <= 1e4"))

    lam = mf.lambda_mod3(2000)
    t3 = mf.tau_mod(3, 6001)
    l_sum = np.cumsum(lam != 0)  # includes k = 0
    t_sum = np.cumsum(t3[1:] != 0)
    ok = all(int(l_sum[x]) == int(t_sum[3 * x]) for x in range(0, 2001))
    out.append(
        _res("oracle/koppeling", "q3", ok, "sum_{k<=x} l_k = sum_{n<=3x+1} t_n, x <= 2000 (k >= 0)")
    )

    bad = int(np.count_nonzero(pr.wilton_codes_cubic(10**5) != mu.class_index("q23", 10**5)))
    out.append(_res("oracle/wilton-dual", "q23", bad == 0, f"{bad} mismatches over p <= 1e5"))
    codes6 = mu.class_index("q23", 10**6)
    n6 = len(codes6)
    freqs = [np.count_nonzero(codes6 == c) / n6 for c in (pr.W_S1, pr.W_S2, pr.W_S3)]
    ok = (
        abs(freqs[0] - 0.5) < 0.01 and abs(freqs[1] - 1 / 3) < 0.01 and abs(freqs[2] - 1 / 6) < 0.01
    )
    out.append(
        _res(
            "oracle/wilton-densities",
            "q23",
            ok,
            f"S1/S2/S3 = {freqs[0]:.4f}/{freqs[1]:.4f}/{freqs[2]:.4f} vs 1/2, 1/3, 1/6 ± 0.01",
        )
    )
    return out


def _local_factor_gap(tag: str) -> tuple[float, str]:
    """The largest local_factor_gap over p <= 1e4 at x = 1/2 and 1/3, and its detail."""
    gap = max(idn.local_factor_gap(tag, x, 10**4) for x in (1 / 2, 1 / 3))
    return gap, f"max log gap {gap:.2e} over p <= 1e4 at x = 1/2, 1/3"


def _check_identities() -> list[CheckResult]:
    """Each s = 2 identity within its budgets, and its local factors at x = 1/2, 1/3,
    where a wrong high-order factor, invisible at x = p^-2, shows."""
    out = []
    for tag in ("q3", "q5", "q7", "q23"):
        lhs, rhs = idn.euler_identity_sides(tag)
        gap = abs(lhs.value - rhs.value)
        local, detail = _local_factor_gap(tag)
        out.append(
            _res(
                "identity/euler-product",
                tag,
                gap <= lhs.budget + rhs.budget and local <= 1e-9,
                f"|lhs - rhs| = {gap:.2e} <= {lhs.budget + rhs.budget:.2e}; {detail}",
            )
        )
    gap, detail = _local_factor_gap("q691")
    out.append(_res("identity/local-factors", "q691", gap <= 1e-9, detail))
    return out


# ---------------------------------------------------------------------------
# Criterion 7: verdicts
# ---------------------------------------------------------------------------

def _check_verdicts(reports) -> list[CheckResult]:
    out = []
    for r in reports:
        out.append(
            _res(
                "verdict/claim-false",
                r.case,
                r.verdict == co.CLAIM_FALSE,
                f"|C2 - {r.c2_ramanujan}| = {abs(r.c2.value - float(r.c2_ramanujan)):.4f} "
                f"> budget {r.c2.budget:.1e}: {r.verdict}",
            )
        )
        if r.case == "q3":
            ok = (
                r.lambda_c2 is not None
                and abs(r.lambda_c2.value - 0.5) > r.lambda_c2.budget
            )
            out.append(
                _res(
                    "verdict/lambda-c2",
                    "q3",
                    ok,
                    f"C2(lambda) = {r.lambda_c2.value:.6f} != 1/2",
                )
            )
        if r.case == "q23":
            ok = r.c2_printed_reference == 0.6083 and bool(r.notes)
            out.append(
                _res("verdict/q23-discrepancy-flag", "q23", ok, "printed-table flag present")
            )
    return out


def run_checks(cases=None) -> list[CheckResult]:
    """Run the verification suite, optionally filtered to some case tags."""
    wanted = set(cases) if cases else set(ALL_CASES)
    table_tags = [t for t in mu.TABLE_CASES if t in wanted]
    results: list[CheckResult] = []

    reports = []
    if table_tags:
        reports = co.table1(table_tags)
        for r in reports:
            results.extend(_check_table_row(r))
    if {"q5", "q7", "q23"} & wanted:
        results.extend(x for x in _check_l_values() if x.case in wanted)
    by_case = {r.case: r for r in reports}
    if "q691" in wanted:
        results.extend(_check_q691(by_case["q691"].b_f))
    if "q3" in wanted:
        results.extend(_check_q3_forms(by_case["q3"]))
    results.extend(_check_first_order(by_case))
    results.extend(x for x in _check_oracles() if x.case in wanted)
    results.extend(x for x in _check_identities() if x.case in wanted)
    results.extend(x for x in _check_verdicts(reports) if x.case in wanted)
    return results
