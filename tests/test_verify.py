"""The verification gate's comparison rules: the comparator's boundary, the
summary-table cells and their flagged exceptions, and the registry of checks,
whose (case, name) pairs the benchmark's golden file records."""

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
from lrlab.verify import ALL_CASES, CHECKS, TRUNCATION_SLACK, _near, _table_cell, run_checks

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify.json"
PAIRS = [(case, name) for case, name, _ in CHECKS]


def _row(case, name):
    """The check function of one registry row."""
    (check,) = [check for c, n, check in CHECKS if (c, n) == (case, name)]
    return check


@pytest.fixture(scope="module")
def reports():
    return {r.case: r for r in table1()}


@pytest.mark.parametrize("cases", ["q5", ["q9"], ["ones"], ("q5", "q9")])
def test_unknown_or_bare_string_cases_are_rejected(cases):
    # an empty result would read as "all passed"
    with pytest.raises(UnsupportedCaseError):
        run_checks(cases)


def test_checks_match_the_benchmark_golden():
    """A renamed, dropped or reordered check fails here, not only in a benchmark
    run; the registry's pairs are read without running anything."""
    assert PAIRS == [tuple(pair) for pair in json.loads(GOLDEN.read_text())]
    assert len(set(PAIRS)) == len(PAIRS)
    assert ALL_CASES == ("two_squares", "q5", "q7", "q3", "q691", "q23", "q2")


def test_a_full_run_yields_the_registry(full_checks):
    assert [(c.case, c.name) for c in full_checks] == PAIRS


@pytest.mark.parametrize("case", ALL_CASES)
def test_one_case_runs_its_own_checks(full_checks, case):
    # the same checks, in the same order and with the same details, as in the full run
    want = [c for c in full_checks if c.case == case]
    assert run_checks([case]) == want


def test_one_case_builds_only_its_checks(monkeypatch):
    # every per-case computation the rows reach is asked for the one case only
    # (library code passes some of these a CaseSpec, which carries its tag)
    asked = []
    for module, attr in (
        (constants, "second_order_constant"),
        (identities, "euler_identity_sides"),
        (identities, "local_factor_gap"),
        (multfn, "f_sieve"),
        (multfn, "class_index"),
    ):
        def spy(tag, *args, _fn=getattr(module, attr), _attr=attr):
            asked.append((_attr, getattr(tag, "tag", tag)))
            return _fn(tag, *args)

        monkeypatch.setattr(module, attr, spy)
    for case in ALL_CASES:
        asked.clear()
        names = [c.name for c in run_checks([case])]
        assert {tag for _, tag in asked} <= {case}, (case, asked)
        assert ("second_order_constant", case) in asked or case == "q2"
        if case == "q2":
            assert names == ["oracle/tau-congruence", "oracle/f-vs-tau", "oracle/parity-count"]


@pytest.mark.parametrize("cases", [[], ["q5"], ["q3", "q2"]])
def test_a_generator_of_cases_runs_like_its_list(cases):
    assert run_checks(c for c in cases) == run_checks(cases)


def test_q3_forms_agree_sees_a_wrong_class_sum(monkeypatch):
    # the class sum of p = 2 (3) at s = 2, about 0.35, scaled by 1 + 1e-12,
    # moves the total by about 3.5e-13, past the budgets (2e-14 and 3e-15)
    class_sum = constants._class_sum

    def scaled(spec, j, s, derivative=1):
        v = class_sum(spec, j, s, derivative)
        return v * (1 + 1e-12) if (spec.tag, j, s) == ("q3", 1, 2) else v

    forms_agree = _row("q3", "q3/forms-agree")
    assert forms_agree()[0]
    monkeypatch.setattr(constants, "_class_sum", scaled)
    passed, detail = forms_agree()
    assert not passed, detail


class TestNear:
    REF, TOL = 1.0, 0.25  # dyadic, so ref +- tol is exact

    @pytest.mark.parametrize("sign", [1, -1])
    def test_real_part_boundary(self, sign):
        edge = self.REF + sign * self.TOL
        assert _near(edge, self.REF, self.TOL)[0]
        assert not _near(math.nextafter(edge, sign * math.inf), self.REF, self.TOL)[0]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_imaginary_part_boundary(self, sign):
        edge = complex(self.REF, sign * self.TOL)
        past = complex(self.REF, math.nextafter(sign * self.TOL, sign * math.inf))
        assert _near(edge, self.REF, self.TOL)[0]
        assert not _near(past, self.REF, self.TOL)[0]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_separate_imaginary_tolerance(self, sign):
        tol_imag = 2.0**-20
        edge = complex(self.REF, sign * tol_imag)
        past = complex(self.REF, math.nextafter(sign * tol_imag, sign * math.inf))
        assert _near(edge, self.REF, self.TOL, tol_imag)[0]
        assert not _near(past, self.REF, self.TOL, tol_imag)[0]

    def test_detail_states_value_reference_and_tolerance(self):
        assert _near(0.82767948, 0.82767947, 1e-6) == (True, "0.82767948 vs 0.82767947 ± 1e-06")


class TestTableRow:
    @pytest.mark.parametrize("case", TABLE_CASES)
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_b_f_outside_its_truncation_interval_fails(self, reports, case, side):
        printed = TABLE1_PRINTED[case][2]
        lo = printed if printed >= 0 else printed - 1e-4  # the interval [lo, lo + 1e-4]
        b = lo - 2 * TRUNCATION_SLACK if side == "below" else lo + 1e-4 + 2 * TRUNCATION_SLACK
        report = replace(reports[case], b_f=ValueWithBudget(b, reports[case].b_f.budget))
        assert not _table_cell("B_f", report)[0]

    def test_exceptions_keep_their_tolerances(self, reports):
        q691, q23 = reports["q691"], reports["q23"]
        (x5, h5), (x6, h6) = q691.h_checkpoints
        far_h6 = ValueWithBudget(q691.b_f.value - 2.1e-3, h6.budget)
        # inside B_f's truncation interval (-0.2167, -0.2166], 1.1e-4 from -0.21666
        far_b = ValueWithBudget(-0.21677, q23.b_f.budget)
        far_c2 = ValueWithBudget(0.5 * (1 + TABLE1_PRINTED["q23"][2]) + 1.1e-4, q23.c2.budget)
        for report, cell in (
            (replace(q691, h_checkpoints=((x5, h5), (x6, far_h6))), "H_f(1e6)"),
            (replace(q23, b_f=far_b), "B_f"),
            (replace(q23, c2=far_c2), "C2"),
        ):
            assert not _table_cell(cell, report)[0], cell

    def test_flagged_cells_stay_flagged(self, reports):
        q691, q23 = reports["q691"], reports["q23"]
        assert any("H_f(1e6)" in n for n in q691.notes)
        assert any("C2" in n for n in q23.notes)
        assert q23.c2_printed_reference == TABLE1_PRINTED["q23"][3]
        for report, cell in ((q691, "H_f(1e6)"), (q23, "C2")):
            passed, detail = _table_cell(cell, report)
            assert passed and "flagged: True" in detail

    def test_q691_h6_without_its_note_fails(self, reports):
        assert not _table_cell("H_f(1e6)", replace(reports["q691"], notes=()))[0]

    def test_q23_c2_without_notes_fails(self, reports):
        assert not _table_cell("C2", replace(reports["q23"], notes=()))[0]

    def test_q23_c2_without_its_printed_reference_fails(self, reports):
        assert not _table_cell("C2", replace(reports["q23"], c2_printed_reference=None))[0]
