import contextlib
import io
import json
import re
import tracemalloc

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrlab.characters import character_group
from lrlab.cli import main
from lrlab.lseries import GAMMA_K_MAX, gamma_k, l_derivative_at_1
from lrlab.multfn import CASES, TABLE_CASES, h_f


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_count_q2(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--case", "q2", "--x", "100")
        assert code == 0
        assert out.strip() == "5"

    def test_tau_exact(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--limit", "5")
        assert code == 0
        assert out.splitlines() == ["1 1", "2 -24", "3 252", "4 -1472", "5 4830"]

    def test_tau_mod(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--limit", "3", "--mod", "23")
        assert code == 0
        assert out.splitlines() == ["1 1", "2 22", "3 22"]

    def test_hf(self, capsys):
        code, out, _ = run_cli(capsys, "hf", "--case", "q5", "--x", "1e5")
        assert code == 0
        assert "±" in out and out.startswith("H_f(q5, 100000)")

    def test_gammak_json_has_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "gammak", "--modulus", "5", "--residue", "2", "--k", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["gamma"]) == {"value", "budget"}

    def test_gammak_highest_order_budget(self, capsys):
        # gamma_12 is about 1.7e-4
        assert GAMMA_K_MAX == 12
        code, out, _ = run_cli(capsys, "gammak", "--modulus", "1", "--residue", "0", "--k", "12")
        assert code == 0
        assert float(out.split(" ± ")[1]) < 1e-7

    def test_lvalue(self, capsys):
        code, out, _ = run_cli(
            capsys, "lvalue", "--modulus", "5", "--index", "1", "--derivative", "1"
        )
        assert code == 0
        assert "L^(1)(1, chi_c^1 mod 5)" in out

    def test_constant_q3(self, capsys):
        code, out, _ = run_cli(capsys, "constant", "--case", "q3")
        assert code == 0
        assert "B_f = -0.534" in out
        assert "CLAIM_FALSE" in out


class TestTable1Formats:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "case,H_1e5,H_1e6,B_f,B_f_budget,C2,C2_ramanujan,verdict"
        assert len(lines) == 7
        assert lines[1].startswith("two_squares,") and lines[6].startswith("q23,")
        assert all(line.endswith("CLAIM_FALSE") for line in lines[1:])

    def test_json_budgets_everywhere(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        for row in rows:
            assert set(row["b_f"]) == {"value", "budget"}
            assert set(row["c2"]) == {"value", "budget"}

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "table1", "--format", "csv")
        _, out2, _ = run_cli(capsys, "table1", "--format", "csv")
        assert out1 == out2

    def test_case_filter(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--case", "q5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("q5,")


def vwb_json(v):
    """A ValueWithBudget as the CLI's JSON holds it, a complex value as re/im."""
    if isinstance(v.value, complex) and v.value.imag != 0.0:
        return {"value": {"re": v.value.real, "im": v.value.imag}, "budget": v.budget}
    return {"value": v.value.real, "budget": v.budget}


class TestOneRenderer:
    """Every command's text and JSON come from one output path."""

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_constant_is_its_part_of_table1(self, capsys, case):
        _, table_json, _ = run_cli(capsys, "table1", "--format", "json")
        _, table_text, _ = run_cli(capsys, "table1")
        code, one_json, _ = run_cli(capsys, "constant", "--case", case, "--format", "json")
        assert code == 0
        assert json.loads(one_json) == next(r for r in json.loads(table_json) if r["case"] == case)
        parts = re.split(r"(?m)^(?=case )", table_text)
        _, one_text, _ = run_cli(capsys, "constant", "--case", case)
        assert one_text == next(p for p in parts if p.startswith(f"case {case}:"))

    def test_report_json_is_indented_and_one_value_is_one_line(self, capsys):
        assert run_cli(capsys, "constant", "--case", "q5", "--format", "json")[1].startswith('{\n  "case": "q5",')
        assert run_cli(capsys, "hf", "--case", "q5", "--x", "1e5", "--format", "json")[1].count("\n") == 1

    def test_hf_json_holds_the_library_value(self, capsys):
        _, out, _ = run_cli(capsys, "hf", "--case", "q691", "--x", "2500.5", "--format", "json")
        assert json.loads(out) == {"case": "q691", "x": 2500.5, "h_f": vwb_json(h_f("q691", 2500.5))}

    def test_gammak_json_holds_the_library_value(self, capsys):
        _, out, _ = run_cli(capsys, "gammak", "--modulus", "7", "--residue", "3", "--k", "2", "--format", "json")
        assert json.loads(out) == {"residue": 3, "modulus": 7, "k": 2, "gamma": vwb_json(gamma_k(3, 7, 2))}

    @pytest.mark.parametrize("modulus, index", [(5, 1), (5, 2), (691, -1)])
    def test_lvalue_json_holds_the_library_value(self, capsys, modulus, index):
        v = l_derivative_at_1(character_group(modulus)[index], 1)
        argv = ("lvalue", "--modulus", str(modulus), "--index", str(index), "--derivative", "1", "--format", "json")
        payload = json.loads(run_cli(capsys, *argv)[1])
        assert payload == {"modulus": modulus, "index": index, "derivative": 1, "L": vwb_json(v)}
        assert isinstance(payload["L"]["value"], dict) == (v.value.imag != 0.0)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 2
        assert run_cli(capsys, "count", "--case", "bogus", "--x", "5")[0] == 2

    def test_bad_values_are_usage_errors(self, capsys):
        for argv in (
            ("lvalue", "--modulus", "5", "--index", "9"),
            ("lvalue", "--modulus", "5", "--index", "-5"),
            ("lvalue", "--modulus", "5", "--index", "4"),
            ("lvalue", "--modulus", "9", "--index", "1"),
            ("hf", "--case", "q3", "--x", "nan"),
            ("hf", "--case", "q3", "--x", "inf"),
            ("hf", "--case", "q3", "--x", "1e400"),
            ("tau", "--limit", "5", "--mod", "4"),
            ("tau", "--limit", "0"),
            ("count", "--case", "q3", "--x", "0"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err, argv

    def test_negative_index_counts_from_the_end(self, capsys):
        _, last, _ = run_cli(capsys, "lvalue", "--modulus", "5", "--index", "3")
        code, out, _ = run_cli(capsys, "lvalue", "--modulus", "5", "--index", "-1")
        assert code == 0 and out.split(" = ")[1] == last.split(" = ")[1]

    def test_precondition_error_is_3(self, capsys):
        # H_f past the prime-power desk limit of 1e7
        code, out, err = run_cli(capsys, "hf", "--case", "q5", "--x", "1e8")
        assert code == 3
        assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err

    def test_huge_x_is_printed_as_given(self, capsys):
        # floor(1e300) in full would be a 301-digit integer on the error line
        code, out, err = run_cli(capsys, "hf", "--case", "q5", "--x", "1e300")
        assert code == 3
        assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err
        assert len(err.strip()) < 120 and "1e+300" in err

    def test_resource_limit_error_is_3(self, capsys):
        code, out, err = run_cli(capsys, "tau", "--limit", "200000")
        assert code == 3
        assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err

    def test_derivative_order_out_of_range_is_a_usage_error(self, capsys):
        for value in (-1, GAMMA_K_MAX + 1, 101, 10**9):
            for argv in (
                ("gammak", "--modulus", "5", "--residue", "2", "--k", str(value)),
                ("lvalue", "--modulus", "5", "--index", "1", "--derivative", str(value)),
            ):
                code, out, err = run_cli(capsys, *argv)
                assert code == 2, argv
                assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err, argv

    def test_large_modulus_is_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "gammak", "--modulus", str(10**9), "--residue", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err
        assert peak < 1 << 20  # 4e10 gamma_0 terms were asked for; no work array was made

    def test_verify_single_case_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--case", "q2")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_removed_checkpoint_flag_is_a_usage_error(self, capsys):
        # the H_f checkpoints are the printed table's 1e5 and 1e6; the flag is
        # refused before any B_f work
        for value in ("nan", "inf"):
            code, out, err = run_cli(capsys, "constant", "--case", "q5", "--hf-checkpoints", value)
            assert code == 2, value
            assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err, value

    def test_removed_prime_limit_flag_is_a_usage_error(self, capsys):
        # every class sum is exact; no sieve limit is left to set
        for command in (("table1",), ("constant", "--case", "q23"), ("verify", "--case", "q2")):
            code, out, err = run_cli(capsys, *command, "--prime-limit", "10000000")
            assert code == 2, command
            assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err, command

    def test_csv_only_where_it_is_printed(self, capsys):
        code, out, err = run_cli(capsys, "lvalue", "--modulus", "5", "--index", "1", "--format", "csv")
        assert code == 2
        assert out == "" and len(err.strip().splitlines()) == 1 and "error:" in err
        assert run_cli(capsys, "verify", "--case", "q2", "--format", "json")[0] == 2



HOSTILE = ("0", "-1", "nan", "inf", "1e400", "", "abc", str(10**12), str(10**30), str(10**400))
FORMATS = ("text", "json")
# Small valid values per flag
COMMANDS = {
    "table1": {"--format": FORMATS + ("csv",)},
    "constant": {"--case": TABLE_CASES, "--format": FORMATS},
    "verify": {"--case": ("all", *TABLE_CASES)},
    "lvalue": {
        "--modulus": ("5", "7"),
        "--index": ("1", "-1", "2"),
        "--derivative": ("1", "2"),
        "--format": FORMATS,
    },
    "gammak": {
        "--modulus": ("5", "7"),
        "--residue": ("1", "2"),
        "--k": ("1", "2"),
        "--format": FORMATS,
    },
    "hf": {"--case": tuple(sorted(CASES)), "--x": ("100", "2500.5"), "--format": FORMATS},
    "tau": {"--limit": ("1", "5", "30"), "--mod": ("2", "23", "691"), "--format": FORMATS},
    "count": {"--case": tuple(sorted(CASES)), "--x": ("1", "100"), "--format": FORMATS},
}


def assert_clean_exit(argv):
    """The exit code is 0, 2 or 3 (or 1 for verify), and a refusal is one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping here is the traceback
    allowed = {0, 1, 2, 3} if argv[0] == "verify" else {0, 2, 3}
    assert code in allowed, (argv, code)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and "error:" in lines[0], (argv, lines)


def _flag_value(valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(HOSTILE))


_ARGV = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda command: st.fixed_dictionaries(
        {flag: _flag_value(valid) for flag, valid in COMMANDS[command].items()}
    ).map(lambda d: [command] + [part for flag, value in d.items() for part in (flag, value)])
)


@given(argv=_ARGV)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_argv_never_ends_in_a_traceback(argv):
    assert_clean_exit(argv)


def test_each_hostile_value_alone():
    # every flag takes every hostile value while the others stay valid
    for command, flags in COMMANDS.items():
        base = {flag: valid[0] for flag, valid in flags.items()}
        for flag in flags:
            for value in HOSTILE:
                argv = dict(base, **{flag: value})
                assert_clean_exit([command] + [part for item in argv.items() for part in item])
