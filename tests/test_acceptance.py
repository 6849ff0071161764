"""Acceptance gate: one test per criterion, printing a PASS line per check.

Criterion 1 : the six-row reference table (H checkpoints, B_f, C_2)
Criterion 2 : quoted L-values at s = 1
Criterion 3 : q691 character sums, b691, residual products (and runtime)
Criterion 4 : explicit q3 constant via the zeta'(2)/zeta(2) rewrite
Criterion 5 : Landau-Ramanujan K and the two-squares C_2
Criterion 6 : oracle-equivalence suites (a)-(f)
Criterion 7 : verdicts, the lambda companion, the q23 flag, CLI gate

Two printed reference cells are documented discrepancies (see
notes in the q23/q691 reports): the q23 C2 cell (0.6083 vs the identity
value) and the q691 H(1e6) cell (-0.571 vs the defining sum's -0.5721).
The faithful assertion for the latter is kept as a strict xfail below.
"""

import subprocess
import sys
import time

import pytest

import lrlab.lseries as lseries
from lrlab import h_f

REQUIRED_PREFIXES = {
    1: ("table1/",),
    2: ("lvalues/",),
    3: ("q691/",),
    4: ("q3/",),
    5: ("constants/",),
    6: ("oracle/", "identity/"),
    7: ("verdict/",),
}


def _report(checks, criterion):
    selected = [c for c in checks if c.name.startswith(REQUIRED_PREFIXES[criterion])]
    assert selected, f"no checks ran for criterion {criterion}"
    print()
    failures = []
    for c in selected:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} [criterion {criterion}] [{c.case}] {c.name}: {c.detail}")
        if not c.passed:
            failures.append(c)
    assert not failures, f"criterion {criterion} failures: {[c.name for c in failures]}"


def test_criterion_1_table_reproduction(full_checks):
    _report(full_checks, 1)


def test_criterion_1_runtime_budget(src_env):
    # full six-case table with H_f to 1e6, in a fresh interpreter so that
    # every cache (sieve, masks, codes, characters) is cold
    script = (
        "import time; from lrlab import table1; t0 = time.monotonic(); "
        "reports = table1(); print(len(reports), time.monotonic() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=src_env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    count, elapsed = proc.stdout.split()
    print(f"\nPASS [criterion 1] table1 cold wall time: {float(elapsed):.1f}s (< 300s)")
    assert int(count) == 6
    assert float(elapsed) < 300.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Printed reference cell H_f(q691, 1e6) = -0.571 is inconsistent with the "
        "defining sum, which evaluates to -0.5721194646 (verified against the von "
        "Mangoldt sum plus the explicit correction over the 105 primes = -1 mod 691; "
        "the q691 report carries the note).  The verification gate checks the "
        "cross-method invariant |H - B_f| <= 2e-3 for this cell instead."
    ),
)
def test_criterion_1_q691_h1e6_printed_cell():
    h6 = h_f("q691", 1e6).value
    assert -0.572 < h6 <= -0.571  # the printed -0.571... cell, taken literally


def test_criterion_2_quoted_l_values(full_checks):
    _report(full_checks, 2)


def test_criterion_3_q691_sums(full_checks):
    _report(full_checks, 3)


def test_criterion_3_runtime_budget():
    # all 690 gamma_1 (and gamma_0) evaluations at m = 691, cold
    lseries._gamma_batch.cache_clear()
    t0 = time.monotonic()
    lseries._gamma_batch(691, 0)
    lseries._gamma_batch(691, 1)
    elapsed = time.monotonic() - t0
    print(f"\nPASS [criterion 3] 690 gamma_0+gamma_1 evaluations: {elapsed:.1f}s (< 120s)")
    assert elapsed < 120.0


def test_criterion_4_explicit_q3(full_checks):
    _report(full_checks, 4)


def test_criterion_5_first_order_constants(full_checks):
    _report(full_checks, 5)


def test_criterion_6_oracle_suites(full_checks):
    _report(full_checks, 6)


def test_criterion_7_verdicts(full_checks):
    _report(full_checks, 7)


def test_criterion_7_cli_verify_exits_zero(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "lrlab.cli", "verify", "--case", "all"],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=1200,
    )
    print("\n" + proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    for tag in ("two_squares", "q5", "q7", "q3", "q691", "q23"):
        assert f"[{tag}] verdict/claim-false" in proc.stdout
