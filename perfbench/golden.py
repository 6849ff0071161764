"""Golden outputs: checking a workload's results, and recording them.

    python3 perfbench/golden.py --record

re-records every file under perfbench/golden/ from the sources in the
checkout.  Record only from a commit whose outputs are known to be right:
the benchmark counts every later disagreement as a failed operation.

Values that carry an error budget agree when they differ by at most the
sum of the two budgets, so a legitimate refinement within budget still
passes; counts, digests, verdicts and check names must match exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

from common import CHILD, GOLDEN, PYTHON, ROOT, SRC, array_digest, child_env
from inputs import (
    COUNT_CASES,
    COUNT_GRID,
    GENERATORS,
    HF_CASES,
    HF_GRID,
    K_VALUES,
    L_MODULI,
    TAU_GRID,
    TAU_MODULI,
    phi,
)

_EPS = 2.0**-52
TABLE1_ARGS = ("table1", "--format", "json")
VERIFY_ARGS = ("verify", "--case", "all")
# Report notes that flag the two inconsistent printed-table cells.
FLAG_NOTES = (("q23", "0.6083"), ("q691", "H_f(1e6)"))
_CHECK_LINE = re.compile(r"^(PASS|FAIL) \[([^\]]+)\] ([^:]+):", re.M)


def load(name: str):
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        return json.load(fh)


class Tally:
    """Attempted and failed checks, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)
        return ok


def _value(v) -> complex:
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return complex(v)


def _within(got, want) -> bool:
    try:
        gap = abs(_value(got["value"]) - _value(want["value"]))
        return gap <= got["budget"] + want["budget"]
    except (KeyError, TypeError, ValueError):
        return False


# --- table1 and verify (CLI output) -----------------------------------------

def check_table1(tally: Tally, text: str):
    """Check `lrlab table1 --format json` output; return the parsed reports or None."""
    try:
        reports = json.loads(text)
        by_case = {r["case"]: r for r in reports}
    except (ValueError, TypeError, KeyError):
        tally.check(False, "table1: output is not the JSON report list")
        return None
    for want in load("table1"):
        case = want["case"]
        got = by_case.get(case)
        if not tally.check(got is not None, f"table1/{case}: missing"):
            continue
        for key in ("b_f", "c2", "first_order", "lambda_c2"):
            if key in want:
                tally.check(_within(got.get(key), want[key]), f"table1/{case}/{key}: {got.get(key)}")
        for x, h in want["h_checkpoints"].items():
            got_h = got.get("h_checkpoints", {}).get(x)
            tally.check(_within(got_h, h), f"table1/{case}/H_f({x}): {got_h}")
        tally.check(got.get("verdict") == want["verdict"], f"table1/{case}: verdict {got.get('verdict')}")
        if "c2_printed_reference" in want:
            ref = got.get("c2_printed_reference")
            tally.check(ref == want["c2_printed_reference"], f"table1/{case}: printed C2 {ref}")
    for case, needle in FLAG_NOTES:
        notes = by_case.get(case, {}).get("notes", [])
        tally.check(any(needle in n for n in notes), f"table1/{case}: flag note missing")
    return reports


def budget_metrics(reports) -> dict:
    """Largest B_f budget, and the smallest |C2 - claimed| in units of C2's budget."""
    return {
        "bf_budget_max": max(r["b_f"]["budget"] for r in reports),
        "verdict_margin_min": min(
            abs(r["c2"]["value"] - float(Fraction(r["c2_ramanujan"]))) / r["c2"]["budget"]
            for r in reports
        ),
    }


def parse_verify(text: str) -> list[tuple[str, str, str]]:
    return _CHECK_LINE.findall(text)


def check_verify(tally: Tally, text: str) -> None:
    """Check `lrlab verify` output: every golden check present and passing, no others."""
    lines = parse_verify(text)
    passed = [(case, name) for status, case, name in lines if status == "PASS"]
    want = [tuple(c) for c in load("verify")]
    for check in want:
        if tally.check(check in passed, f"verify: no PASS for [{check[0]}] {check[1]}"):
            passed.remove(check)
    tally.check(len(lines) == len(want), f"verify: {len(lines)} checks, expected {len(want)}")


# --- oracles ------------------------------------------------------------------

def check_oracles(tally: Tally, result: dict) -> None:
    want = load("oracles")
    tally.check(result.get("tau_exact") == want["tau_exact"], "oracles: tau_exact digest")
    for q in map(str, TAU_MODULI):
        tally.check(result["tau_mod"].get(q) == want["tau_mod"][q], f"oracles: tau_mod({q}) digest")
        tally.check(result["tau_mod_agrees"].get(q) is True, f"oracles: tau_mod({q}) != tau_exact mod {q}")
    tally.check(result.get("lambda_mod3") == want["lambda_mod3"], "oracles: lambda_mod3 digest")
    for case in COUNT_CASES:
        got = result["count_f"].get(case)
        tally.check(got == want["count_f"][case], f"oracles: count_f({case}) = {got}")


# --- queries ------------------------------------------------------------------

def character_values(m: int, j: int) -> list[complex]:
    """chi_c^j(r) for r = 1..m, from the fixed generator, independently of lrlab."""
    g, n = GENERATORS[m], phi(m)
    dlog, x = {}, 1
    for a in range(n):
        dlog[x] = a
        x = x * g % m
    out = []
    for r in range(1, m + 1):
        if r % m in dlog:
            angle = 2.0 * math.pi * ((j * dlog[r % m]) % n) / n
            out.append(complex(math.cos(angle), math.sin(angle)))
        else:
            out.append(0j)
    return out


class QueryChecker:
    """Checks `queries` results against the golden grids.

    L^(k)(1, chi) is checked against (-1)^k sum_r chi(r) gamma_k(r, m) built
    from the golden gamma_k values and characters computed here.
    """

    def __init__(self, golden: dict | None = None):
        self.golden = golden if golden is not None else load("queries")
        self.tally = Tally()
        self._l_refs: dict = {}

    def _l_reference(self, m: int, j: int, k: int) -> tuple[complex, float]:
        key = (m, j, k)
        if key not in self._l_refs:
            g = self.golden["gamma"][f"{m}/{k}"]
            terms = [c * v for c, v in zip(character_values(m, j), g["values"])]
            sign = -1.0 if k % 2 else 1.0
            value = sign * complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
            budget = (m - 1) * g["budget"] + 4.0 * _EPS * sum(abs(t) for t in terms)
            self._l_refs[key] = (value, budget)
        return self._l_refs[key]

    def check(self, query, result) -> bool:
        kind = query[0]
        try:
            if isinstance(result, Exception):
                ok = False
            elif kind == "l_derivative_at_1":
                _, m, j, k = query
                value, budget = self._l_reference(m, j, k)
                ok = abs(result.value - value) <= result.budget + budget
            elif kind == "gamma_k":
                _, r, m, k = query
                g = self.golden["gamma"][f"{m}/{k}"]
                ok = abs(result.value - g["values"][r - 1]) <= result.budget + g["budget"]
            elif kind == "h_f":
                _, case, i = query
                g = self.golden["h_f"][case]
                ok = abs(result.value - g["values"][i]) <= result.budget + g["budget"]
            elif kind == "count_f":
                _, case, i = query
                ok = result == self.golden["count_f"][case][i]
            else:
                _, q, i = query
                ok = array_digest(result[1:]) == self.golden["tau_mod"][str(q)][i]
        except (AttributeError, TypeError, ValueError, IndexError):
            ok = False
        return self.tally.check(ok, "" if ok else f"queries: {query!r} -> {result!r}"[:200])


# --- recording ----------------------------------------------------------------

def _run(argv) -> str:
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _record_queries() -> dict:
    sys.path.insert(0, SRC)
    import lrlab

    out = {"gamma": {}, "h_f": {}, "count_f": {}, "tau_mod": {}}
    for m in L_MODULI:
        for k in K_VALUES:
            vals = [lrlab.gamma_k(r, m, k) for r in range(1, m + 1)]
            out["gamma"][f"{m}/{k}"] = {
                "values": [v.value for v in vals],
                "budget": max(v.budget for v in vals),
            }
    for case in HF_CASES:
        vals = [lrlab.h_f(case, float(x)) for x in HF_GRID]
        out["h_f"][case] = {"values": [v.value for v in vals], "budget": max(v.budget for v in vals)}
    for case in COUNT_CASES:
        out["count_f"][case] = [lrlab.count_f(case, x) for x in COUNT_GRID]
    for q in TAU_MODULI:
        out["tau_mod"][str(q)] = [array_digest(lrlab.tau_mod(q, n)[1:]) for n in TAU_GRID]
    return out


def _self_check_queries(golden: dict) -> None:
    """Every call the stream can make must pass against what was just recorded."""
    import lrlab

    checker = QueryChecker(golden)
    for m in L_MODULI:
        group = lrlab.character_group(m)
        for j in range(1, phi(m)):
            for k in K_VALUES:
                query = ("l_derivative_at_1", m, j, k)
                checker.check(query, lrlab.l_derivative_at_1(group[j], k))
    if checker.tally.failed:
        raise SystemExit(f"recorded gamma_k values do not reproduce L: {checker.tally.problems}")


def record() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    table1 = json.loads(_run([PYTHON, "-m", "lrlab.cli", *TABLE1_ARGS]))
    verify = [[case, name] for _, case, name in parse_verify(_run([PYTHON, "-m", "lrlab.cli", *VERIFY_ARGS]))]
    oracles = json.loads(_run([PYTHON, CHILD, "oracles"]).splitlines()[-1])
    if not all(oracles.pop("tau_mod_agrees").values()):
        raise SystemExit("tau_mod disagrees with tau_exact; not recording")
    queries = _record_queries()
    _self_check_queries(queries)
    for name, data in (("table1", table1), ("verify", verify), ("oracles", oracles), ("queries", queries)):
        with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
            json.dump(data, fh, indent=1 if name != "queries" else None)
            fh.write("\n")
    print(f"recorded {len(table1)} table rows, {len(verify)} verify checks, oracles and queries")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    record()
