"""Verification gate: every computed quantity against its reference target.

The gate is one table, `CHECKS`, of (case, name, check) rows, where
``check()`` returns (passed, detail).  `run_checks` runs the wanted cases'
rows in registry order: `lrlab verify` prints one PASS/FAIL line per row and
exits 0 iff all passed, and `verify --case X` runs only X's rows and prints
the same lines for them as a full run.  Rows share work only through the
library's caches.  Each printed number is written once, and a check's detail
shows the numbers it compared.

Summary-table cells come from `constants.TABLE1_PRINTED`.  They are
truncated decimals: a cell matches when the computed value truncates to its
digits (`_matches_truncated`).  q691's H_f(1e6) and q23's C2 cells are
irreproducible from their definitions: the report must flag each in a note,
and the value is held instead to 2e-3 around B_f and to 1e-4 around
(1 - tau)(1 + printed B_f).  q23's B_f, printed with its fifth digit open,
is also held to 1e-4 around the text's five-digit value.  Every other quoted
decimal is a `PUBLISHED` row, matched when |computed - printed| <= tolerance
in each component (a row may give the imaginary part its own tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import _args
from . import constants as co
from . import identities as idn
from . import lseries as ls
from . import modforms as mf
from . import multfn as mu
from . import primes as pr
from .characters import generator_character, kronecker_character
from .errors import UnsupportedCaseError

__all__ = ["CheckResult", "run_checks", "ALL_CASES", "CHECKS", "PUBLISHED"]

# Quoted decimals outside the summary table: check name -> (case, printed
# value, tolerance per component[, tolerance of the imaginary part]).
PUBLISHED = {
    "lvalues/L'/L(chi_5)": ("q5", 0.82767947, 1e-6),
    "lvalues/L'/L(chi_c mod 5)": ("q5", 0.15786453 - 0.08833613j, 1e-6),
    "lvalues/L'(chi_-7)": ("q7", 0.01856598, 1e-6),
    "lvalues/L'(chi_-23)": ("q23", -0.82955295, 1e-6),
    "q691/odd-character-sum": ("q691", 1.9018228, 1e-5, 1e-8),
    "q691/even-character-sum": ("q691", 5.10942407, 1e-5, 1e-8),
    "q691/b691": ("q691", -0.5717, 2e-4),
    "q3/B-rewrite": ("q3", -0.5349219, 1e-5),
    "constants/K": ("two_squares", 0.764, 5e-4),
    "constants/two-squares-C2": ("two_squares", 0.5819, 5e-4),
    "constants/two-squares-C2-shanks": ("two_squares", 0.5819486, 1e-4),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    case: str
    passed: bool
    detail: str


# Widens every truncation interval, for values within rounding of a decimal boundary.
TRUNCATION_SLACK = 1e-9


def _matches_truncated(value: float, printed: float, decimals: int) -> bool:
    """True if ``value`` truncates to the printed ``decimals``-digit decimal.

    A printed value like -0.401 (with trailing dots) means the true value
    lies in (-0.402, -0.401]; +0.163 means [0.163, 0.164), each widened by
    TRUNCATION_SLACK.
    """
    step, slack = 10.0**-decimals, TRUNCATION_SLACK
    if printed >= 0:
        return printed - slack <= value < printed + step + slack
    return printed - step - slack < value <= printed + slack


def _near(value, ref, tol, tol_imag=None) -> tuple[bool, str]:
    """|value - ref| <= tol, in each component of a complex ``value`` (the
    imaginary part within ``tol_imag`` if given)."""
    parts = [(value.real, ref.real, tol)]
    if isinstance(value, complex):
        parts.append((value.imag, ref.imag, tol if tol_imag is None else tol_imag))
    detail = f"{value:.10g} vs {ref:.10g} ± {tol:g}"
    if tol_imag is not None:
        detail += f" (imaginary part ± {tol_imag:g})"
    return all(abs(v - r) <= t for v, r, t in parts), detail


def _quoted(name, value):
    """The row that holds ``value()`` to its PUBLISHED decimal."""
    case, *ref = PUBLISHED[name]
    return case, name, lambda: _near(value(), *ref)


# ---------------------------------------------------------------------------
# Criterion 1: the six-row table
# ---------------------------------------------------------------------------

def _table_cell(cell, report) -> tuple[bool, str]:
    """One printed cell of the report's row, with its three exceptions (module docstring)."""
    tag, b, notes = report.case, report.b_f.value, report.notes
    h5_ref, h6_ref, b_ref, c2_ref, _ = co.TABLE1_PRINTED[tag]
    one_minus_tau = 1.0 - float(report.tau)
    if cell == "C2-identity":
        ident = one_minus_tau * (1.0 + b)
        ok = abs(report.c2.value - ident) <= 1e-15 * (1.0 + abs(ident))
        return ok, f"C2 = {report.c2.value:.10f} vs (1-tau)(1+B) = {ident:.10f}"
    (_, h5), (_, h6) = report.h_checkpoints[:2]
    v, printed, decimals = {"H_f(1e5)": (h5, h5_ref, 3), "H_f(1e6)": (h6, h6_ref, 3),
                            "B_f": (report.b_f, b_ref, 4), "C2": (report.c2, c2_ref, 4)}[cell]
    near = flagged = None
    if (tag, cell) == ("q691", "H_f(1e6)"):
        near, flagged = (b, 2e-3), any("H_f(1e6)" in n for n in notes)
    elif (tag, cell) == ("q23", "B_f"):
        near = (-0.21666, 1e-4)
    elif (tag, cell) == ("q23", "C2"):
        near = (one_minus_tau * (1.0 + b_ref), 1e-4)
        flagged = report.c2_printed_reference == c2_ref and any("C2" in n for n in notes)
    if flagged is None:
        ok, detail = _matches_truncated(v.value, printed, decimals), f"truncates to printed {printed}"
    else:
        ok, detail = flagged, f"printed {printed} is irreproducible, flagged: {flagged}"
    if near is not None:
        also, also_detail = _near(v.value, *near)
        ok, detail = ok and also, f"{detail}; {also_detail}"
    return ok, f"{cell} = {v:.7f}, {detail}"


# ---------------------------------------------------------------------------
# Criteria 2-5: the quoted decimals
# ---------------------------------------------------------------------------

def _ratio(j):
    """L'/L(1, chi) for chi = chi_c^j mod 5."""
    chi = generator_character(5, j)
    return (ls.l_derivative_at_1(chi, 1) / ls.l_derivative_at_1(chi, 0)).value


def _l_value(d, k):
    return ls.l_derivative_at_1(kronecker_character(d), k).value.real


def _omitted_products():
    b, row_b = co.b691_approx(), co.second_order_constant("q691").b_f
    share = row_b.value - b.value  # the four residual products the formula leaves out
    detail = f"|B_f - b691| = |{share:.3e}| < 1e-5 (budgets {row_b.budget:.1e} + {b.budget:.1e})"
    return abs(share) < 1e-5, detail


def _q3_forms_agree():
    # the zeta(2s)^-2 rewrite moves (1 - p^-2s)^2 over every prime into zeta(2s)^-2, so
    # the two forms agree iff the class sums mod 3 at s = 2 add up to -zeta'/zeta(2)
    spec = mu.get_case("q3")
    total = sum(co._class_sum(spec, j, 2) for j in range(len(spec.m0)))
    every_prime = -(ls.zeta_value(2, 1) / ls.zeta_value(2))
    detail = f"class sums mod 3 at s = 2: {total:.16g} vs -zeta'/zeta(2) = {every_prime:.16g}"
    return total.agrees_with(every_prime), detail


def _c5_consistent():
    c5 = co.second_order_constant("q5").first_order
    return c5.budget < 1e-4, f"C = {c5}, budget < 1e-4"


# ---------------------------------------------------------------------------
# Criterion 6: oracle equivalence suites
# ---------------------------------------------------------------------------

N_MAX = 20_000
# the tau cases' moduli q and tags
_TAU_QS = ((2, "q2"), (3, "q3"), (5, "q5"), (7, "q7"), (23, "q23"), (691, "q691"))


@lru_cache(maxsize=1)
def _tau_reduced():
    """tau(n) mod the product of the q of _TAU_QS, n = 1..N_MAX: one pass over the exact tau."""
    product = math.prod(q for q, _ in _TAU_QS)
    out = np.array([t % product for t in mf.tau_exact(N_MAX).values], dtype=np.int64)
    out.flags.writeable = False
    return out


def _tau_residues(q):
    """tau(n) mod q, n = 1..N_MAX, for a q of _TAU_QS (which divides the product)."""
    return _tau_reduced() % q


def _tau_congruence(q):
    return np.array_equal(mf.tau_mod(q, N_MAX)[1:], _tau_residues(q)), f"tau mod {q} on n <= {N_MAX}"


def _f_vs_tau(q, tag):
    ok = np.array_equal(mu.f_sieve(tag, N_MAX)[1:], _tau_residues(q) != 0)
    return ok, f"f(n) = [tau(n) mod {q} != 0], n <= {N_MAX}"


def _two_squares():
    sq = np.zeros(N_MAX + 1, dtype=bool)
    for u in range(0, math.isqrt(N_MAX) + 1):
        v2 = np.arange(0, math.isqrt(N_MAX - u * u) + 1)
        sq[u * u + v2 * v2] = True
    ok = np.array_equal(mu.f_sieve("two_squares", N_MAX)[1:], sq[1:])
    return ok, f"two-square representability, n <= {N_MAX}"


def _q691_zero_set():
    zeros = np.flatnonzero(~mu.f_sieve("q691", 11053))[1:].tolist()
    return zeros == sorted([1381 * m for m in range(1, 9)] + [5527, 8291]), f"zeros below 11054: {zeros}"


def _parity_count():
    parity = np.cumsum([t % 2 for t in mf.tau_exact(N_MAX).values[: 10**4]])
    ok = all(int(parity[x - 1]) == mf.odd_tau_count(x) for x in range(1, 10**4 + 1))
    return ok, "#odd tau(n<=x) = floor((1+sqrt x)/2), x <= 1e4"


def _koppeling():
    l_sum = np.cumsum(mf.lambda_mod3(2000) != 0)  # includes k = 0
    t_sum = np.cumsum(mf.tau_mod(3, 6001)[1:] != 0)
    ok = all(int(l_sum[x]) == int(t_sum[3 * x]) for x in range(0, 2001))
    return ok, "sum_{k<=x} l_k = sum_{n<=3x+1} t_n, x <= 2000 (k >= 0)"


def _wilton_dual():
    # Wilton: tau(p) = the trace of p's class (mod 23), p = 23 included, tau read from the eta product
    trace = np.array(pr.WILTON_TRACE)[mu.class_index("q23", 10**5)]
    bad = int(np.count_nonzero((trace - mf.tau_mod(23, 10**5)[pr.sieve_primes(10**5)]) % 23))
    return bad == 0, f"{bad} mismatches over p <= 1e5"


def _wilton_densities():
    codes6 = mu.class_index("q23", 10**6)
    shares = np.bincount(codes6, minlength=3)[:3] / len(codes6)  # S1, S2, S3
    density = [Fraction(size, 6) for size in pr.WILTON_SIZE]
    ok = all(abs(share - d) < 0.01 for share, d in zip(shares.tolist(), density))
    return ok, "S1/S2/S3 = {:.4f}/{:.4f}/{:.4f} vs {} ± 0.01".format(*shares, ", ".join(map(str, density)))


def _local_factors(tag):
    """The largest local_factor_gap over p <= 1e4 at x = 1/2 and 1/3, within 1e-9."""
    gap = max(idn.local_factor_gap(tag, x, 10**4) for x in (1 / 2, 1 / 3))
    return gap <= 1e-9, f"max log gap {gap:.2e} over p <= 1e4 at x = 1/2, 1/3"


def _euler_product(tag):
    """The s = 2 identity within its budgets, and the local factors at x = 1/2,
    1/3, where a wrong high-order factor, invisible at x = p^-2, shows."""
    lhs, rhs = idn.euler_identity_sides(tag)
    gap = abs(lhs.value - rhs.value)
    local_ok, detail = _local_factors(tag)
    ok = gap <= lhs.budget + rhs.budget and local_ok
    return ok, f"|log lhs - log rhs| = {gap:.2e} <= {lhs.budget + rhs.budget:.2e}; {detail}"


# ---------------------------------------------------------------------------
# Criterion 7: verdicts
# ---------------------------------------------------------------------------

def _claim_false(tag):
    r = co.second_order_constant(tag)
    gap = abs(r.c2.value - float(r.c2_ramanujan))
    detail = f"|C2 - {r.c2_ramanujan}| = {gap:.4f} > budget {r.c2.budget:.1e}: {r.verdict}"
    return r.verdict == co.CLAIM_FALSE, detail


def _lambda_c2():
    lam = co.second_order_constant("q3").lambda_c2
    return lam is not None and abs(lam.value - 0.5) > lam.budget, f"C2(lambda) = {lam.value:.6f} != 1/2"


def _q23_flag():
    r = co.second_order_constant("q23")
    ok = r.c2_printed_reference == co.TABLE1_PRINTED["q23"][3] and bool(r.notes)
    return ok, "printed-table flag present"


CHECKS = (
    *((tag, f"table1/{cell}", lambda tag=tag, cell=cell: _table_cell(cell, co.second_order_constant(tag)))
      for tag in mu.TABLE_CASES for cell in ("H_f(1e5)", "H_f(1e6)", "B_f", "C2-identity", "C2")),
    _quoted("lvalues/L'/L(chi_5)", lambda: _ratio(2)),
    _quoted("lvalues/L'/L(chi_c mod 5)", lambda: _ratio(1)),
    _quoted("lvalues/L'(chi_-7)", lambda: _l_value(-7, 1)),
    _quoted("lvalues/L'(chi_-23)", lambda: _l_value(-23, 1)),
    ("q7", "lvalues/L(chi_-7)=pi/sqrt7",
     lambda: _near(_l_value(-7, 0), ls.closed_form_l_values("chi_minus7"), 1e-8)),
    ("q23", "lvalues/L(chi_-23)=3pi/sqrt23",
     lambda: _near(_l_value(-23, 0), ls.closed_form_l_values("chi_minus23"), 1e-8)),
    _quoted("q691/odd-character-sum", lambda: co.b691_character_sums()[0].value),
    _quoted("q691/even-character-sum", lambda: co.b691_character_sums()[1].value),
    _quoted("q691/b691", lambda: co.b691_approx().value),
    ("q691", "q691/omitted-products", _omitted_products),
    _quoted("q3/B-rewrite", lambda: co.second_order_constant("q3").b_f.value),
    ("q3", "q3/forms-agree", _q3_forms_agree),
    _quoted("constants/K", lambda: co.second_order_constant("two_squares").first_order.value),
    _quoted("constants/two-squares-C2", lambda: co.second_order_constant("two_squares").c2.value),
    _quoted("constants/two-squares-C2-shanks", lambda: co.second_order_constant("two_squares").c2.value),
    ("q5", "constants/first-order-q5-consistent", _c5_consistent),
    *(row for q, tag in _TAU_QS
      for row in ((tag, "oracle/tau-congruence", partial(_tau_congruence, q)),
                  (tag, "oracle/f-vs-tau", partial(_f_vs_tau, q, tag)))),
    ("two_squares", "oracle/f-vs-tau", _two_squares),
    ("q691", "oracle/q691-zero-set", _q691_zero_set),
    ("q2", "oracle/parity-count", _parity_count),
    ("q3", "oracle/koppeling", _koppeling),
    ("q23", "oracle/wilton-dual", _wilton_dual),
    ("q23", "oracle/wilton-densities", _wilton_densities),
    *((tag, "identity/euler-product", partial(_euler_product, tag)) for tag in ("q3", "q5", "q7", "q23")),
    ("q691", "identity/local-factors", partial(_local_factors, "q691")),
    *((tag, "verdict/claim-false", partial(_claim_false, tag)) for tag in ("two_squares", "q5", "q7", "q3")),
    ("q3", "verdict/lambda-c2", _lambda_c2),
    *((tag, "verdict/claim-false", partial(_claim_false, tag)) for tag in ("q691", "q23")),
    ("q23", "verdict/q23-discrepancy-flag", _q23_flag),
)

ALL_CASES = tuple(dict.fromkeys(case for case, _, _ in CHECKS))


def run_checks(cases=None) -> list[CheckResult]:
    """Run the rows of some case tags (all for None or an empty collection), in registry order."""
    wanted = _args.tags(() if cases is None else cases, ALL_CASES, "cases", UnsupportedCaseError) or ALL_CASES
    results = []
    for case, name, check in CHECKS:
        if case in wanted:
            passed, detail = check()
            results.append(CheckResult(name, case, bool(passed), detail))
    return results
