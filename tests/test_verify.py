"""The verification gate's comparison rules: the comparator's boundary, the
summary-table cells and their flagged exceptions, and the check sequence the
benchmark's golden file records."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from lrlab import constants, identities, multfn
from lrlab.budget import ValueWithBudget
from lrlab.constants import TABLE1_PRINTED, table1
from lrlab.errors import UnsupportedCaseError
from lrlab.multfn import TABLE_CASES
from lrlab.verify import ALL_CASES, TRUNCATION_SLACK, _check_quoted, _check_table_row, _near, run_checks

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify.json"


def _check(report, name):
    (check,) = [c for c in _check_table_row(report) if c.name == name]
    return check


@pytest.fixture(scope="module")
def reports():
    return {r.case: r for r in table1()}


@pytest.mark.parametrize("cases", ["q5", ["q9"], ["ones"], ("q5", "q9")])
def test_unknown_or_bare_string_cases_are_rejected(cases):
    # an empty result would read as "all passed"
    with pytest.raises(UnsupportedCaseError):
        run_checks(cases)


def test_checks_match_the_benchmark_golden(full_checks):
    """A renamed, dropped or reordered check fails here, not only in a benchmark run."""
    want = [tuple(pair) for pair in json.loads(GOLDEN.read_text())]
    assert [(c.case, c.name) for c in full_checks] == want


@pytest.mark.parametrize("case", ALL_CASES)
def test_one_case_runs_its_own_checks(full_checks, case):
    # the same checks, in the same order and with the same details, as in the full run
    want = [c for c in full_checks if c.case == case]
    assert run_checks([case]) == want


def test_one_case_builds_only_its_checks(monkeypatch):
    def no_identity(tag):
        raise AssertionError(f"euler_identity_sides({tag!r}) built for --case q2")

    f_sieve = multfn.f_sieve

    def sieve_q2_only(case, x):
        assert case == "q2", f"f_sieve({case!r}) built for --case q2"
        return f_sieve(case, x)

    monkeypatch.setattr(identities, "euler_identity_sides", no_identity)
    monkeypatch.setattr(multfn, "f_sieve", sieve_q2_only)
    names = [c.name for c in run_checks(["q2"])]
    assert names == ["oracle/tau-congruence", "oracle/f-vs-tau", "oracle/parity-count"]


def test_q3_forms_agree_sees_a_wrong_class_sum(monkeypatch, reports):
    # the class sum of p = 2 (3) at s = 2, about 0.35, scaled by 1 + 1e-12,
    # moves the total by about 3.5e-13, past the budgets (2e-14 and 3e-15)
    class_sum = constants._class_sum

    def scaled(spec, j, s, derivative=1):
        v = class_sum(spec, j, s, derivative)
        return v * (1 + 1e-12) if (spec.tag, j, s) == ("q3", 1, 2) else v

    def forms_agree():
        (check,) = [c for c in _check_quoted({"q3": reports["q3"]}, {"q3"}) if c.name == "q3/forms-agree"]
        return check

    assert forms_agree().passed
    monkeypatch.setattr(constants, "_class_sum", scaled)
    assert not forms_agree().passed, forms_agree().detail


class TestNear:
    REF, TOL = 1.0, 0.25  # dyadic, so ref +- tol is exact

    @pytest.mark.parametrize("sign", [1, -1])
    def test_real_part_boundary(self, sign):
        edge = self.REF + sign * self.TOL
        assert _near("c", "n", edge, self.REF, self.TOL).passed
        assert not _near("c", "n", math.nextafter(edge, sign * math.inf), self.REF, self.TOL).passed

    @pytest.mark.parametrize("sign", [1, -1])
    def test_imaginary_part_boundary(self, sign):
        edge = complex(self.REF, sign * self.TOL)
        past = complex(self.REF, math.nextafter(sign * self.TOL, sign * math.inf))
        assert _near("c", "n", edge, self.REF, self.TOL).passed
        assert not _near("c", "n", past, self.REF, self.TOL).passed

    @pytest.mark.parametrize("sign", [1, -1])
    def test_separate_imaginary_tolerance(self, sign):
        tol_imag = 2.0**-20
        edge = complex(self.REF, sign * tol_imag)
        past = complex(self.REF, math.nextafter(sign * tol_imag, sign * math.inf))
        assert _near("c", "n", edge, self.REF, self.TOL, tol_imag).passed
        assert not _near("c", "n", past, self.REF, self.TOL, tol_imag).passed

    def test_detail_states_value_reference_and_tolerance(self):
        check = _near("q5", "n", 0.82767948, 0.82767947, 1e-6)
        assert check.case == "q5" and check.name == "n"
        assert check.detail == "0.82767948 vs 0.82767947 ± 1e-06"


class TestTableRow:
    @pytest.mark.parametrize("case", TABLE_CASES)
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_b_f_outside_its_truncation_interval_fails(self, reports, case, side):
        printed = TABLE1_PRINTED[case][2]
        lo = printed if printed >= 0 else printed - 1e-4  # the interval [lo, lo + 1e-4]
        b = lo - 2 * TRUNCATION_SLACK if side == "below" else lo + 1e-4 + 2 * TRUNCATION_SLACK
        report = replace(reports[case], b_f=ValueWithBudget(b, reports[case].b_f.budget))
        assert not _check(report, "table1/B_f").passed

    def test_exceptions_keep_their_tolerances(self, reports):
        q691, q23 = reports["q691"], reports["q23"]
        (x5, h5), (x6, h6) = q691.h_checkpoints
        far_h6 = ValueWithBudget(q691.b_f.value - 2.1e-3, h6.budget)
        # inside B_f's truncation interval (-0.2167, -0.2166], 1.1e-4 from -0.21666
        far_b = ValueWithBudget(-0.21677, q23.b_f.budget)
        far_c2 = ValueWithBudget(0.5 * (1 + TABLE1_PRINTED["q23"][2]) + 1.1e-4, q23.c2.budget)
        for report, name in (
            (replace(q691, h_checkpoints=((x5, h5), (x6, far_h6))), "table1/H_f(1e6)"),
            (replace(q23, b_f=far_b), "table1/B_f"),
            (replace(q23, c2=far_c2), "table1/C2"),
        ):
            assert not _check(report, name).passed, name

    def test_flagged_cells_stay_flagged(self, reports):
        q691, q23 = reports["q691"], reports["q23"]
        assert any("H_f(1e6)" in n for n in q691.notes)
        assert any("C2" in n for n in q23.notes)
        assert q23.c2_printed_reference == TABLE1_PRINTED["q23"][3]
        for report, name in ((q691, "table1/H_f(1e6)"), (q23, "table1/C2")):
            check = _check(report, name)
            assert check.passed and "flagged: True" in check.detail

    def test_q691_h6_without_its_note_fails(self, reports):
        assert not _check(replace(reports["q691"], notes=()), "table1/H_f(1e6)").passed

    def test_q23_c2_without_notes_fails(self, reports):
        assert not _check(replace(reports["q23"], notes=()), "table1/C2").passed

    def test_q23_c2_without_its_printed_reference_fails(self, reports):
        assert not _check(replace(reports["q23"], c2_printed_reference=None), "table1/C2").passed
