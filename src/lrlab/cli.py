"""Command-line front end.

Subcommands:
    table1    the six-case summary (text, json, or csv)
    constant  one case's B_f / C_2 report
    lvalue    L^(k)(1, chi) for chi = chi_c^j mod m
    gammak    a generalized Euler constant gamma_k(r, m)
    hf        H_f(x) for one case
    tau       tau(n) exactly or mod q
    count     the counting function for one case
    verify    run the verification gate (exit 0 iff everything passes)

Every subcommand but verify prints text or, with --format json, JSON;
table1 also prints csv.  Every numeric output carries its error budget.
Output is deterministic: fixed 10-significant-digit formatting, ordered
reductions, no locale-dependent pieces.  Exit codes: 0 success, 1 a failed
verify check, 2 argument/usage error, 3 computational precondition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import constants as co
from . import lseries as ls
from . import modforms as mf
from . import multfn as mu
from .budget import ValueWithBudget
from .characters import GENERATORS, character_group, euler_phi
from .errors import InvalidArgumentError, LrlabError
from .verify import ALL_CASES, run_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _vwb_json(v: ValueWithBudget) -> dict:
    val = v.value
    if isinstance(val, complex):
        if val.imag == 0.0:
            val = val.real
        else:
            return {"value": {"re": val.real, "im": val.imag}, "budget": v.budget}
    return {"value": val, "budget": v.budget}


def _report_dict(r: co.ConstantReport) -> dict:
    out = {
        "case": r.case,
        "tau": str(r.tau),
        "delta": str(r.delta),
        "b_f": _vwb_json(r.b_f),
        "c2": _vwb_json(r.c2),
        "c2_ramanujan": str(r.c2_ramanujan),
        "h_checkpoints": {str(x): _vwb_json(h) for x, h in r.h_checkpoints},
        "verdict": r.verdict,
    }
    if r.first_order is not None:
        out["first_order"] = _vwb_json(r.first_order)
    if r.lambda_c2 is not None:
        out["lambda_c2"] = _vwb_json(r.lambda_c2)
    if r.c2_printed_reference is not None:
        out["c2_printed_reference"] = r.c2_printed_reference
    if r.notes:
        out["notes"] = list(r.notes)
    return out


def _print_report_text(r: co.ConstantReport) -> None:
    print(f"case {r.case}: tau = {r.tau}, delta = {r.delta}")
    for x, h in r.h_checkpoints:
        print(f"  H_f({x:.10g}) = {h}")
    print(f"  B_f = {r.b_f}")
    print(f"  C_2 = {r.c2}   claimed {r.c2_ramanujan}   -> {r.verdict}")
    if r.first_order is not None:
        print(f"  first-order constant = {r.first_order}")
    if r.lambda_c2 is not None:
        print(f"  C_2(lambda) = {r.lambda_c2}   claimed 1/2")
    for note in r.notes:
        print(f"  note: {note}")


def _cmd_table1(args) -> int:
    cases = args.case or None
    reports = co.table1(cases)
    if args.format == "json":
        print(json.dumps([_report_dict(r) for r in reports], indent=2))
        return EXIT_OK
    if args.format == "csv":
        print("case,H_1e5,H_1e6,B_f,B_f_budget,C2,C2_ramanujan,verdict")
        for r in reports:
            h5, h6 = (v.value for _, v in r.h_checkpoints)
            print(
                f"{r.case},{h5:.10g},{h6:.10g},"
                f"{r.b_f.value:.10g},{r.b_f.budget:.10g},{r.c2.value:.10g},"
                f"{r.c2_ramanujan},{r.verdict}"
            )
        return EXIT_OK
    for r in reports:
        _print_report_text(r)
    return EXIT_OK


def _cmd_constant(args) -> int:
    report = co.verdict(co.second_order_constant(args.case))
    if args.format == "json":
        print(json.dumps(_report_dict(report), indent=2))
    else:
        _print_report_text(report)
    return EXIT_OK


def _cmd_lvalue(args) -> int:
    chi = character_group(args.modulus)[args.index]
    v = ls.l_derivative_at_1(chi, args.derivative)
    if args.format == "json":
        print(json.dumps({"modulus": args.modulus, "index": args.index, "derivative": args.derivative, "L": _vwb_json(v)}))
    else:
        print(f"L^({args.derivative})(1, chi_c^{args.index} mod {args.modulus}) = {v}")
    return EXIT_OK


def _cmd_gammak(args) -> int:
    v = ls.gamma_k(args.residue, args.modulus, args.k)
    if args.format == "json":
        print(json.dumps({"residue": args.residue, "modulus": args.modulus, "k": args.k, "gamma": _vwb_json(v)}))
    else:
        print(f"gamma_{args.k}({args.residue}, {args.modulus}) = {v}")
    return EXIT_OK


def _cmd_hf(args) -> int:
    v = mu.h_f(args.case, args.x)
    if args.format == "json":
        print(json.dumps({"case": args.case, "x": args.x, "h_f": _vwb_json(v)}))
    else:
        print(f"H_f({args.case}, {args.x:.10g}) = {v}")
    return EXIT_OK


def _cmd_tau(args) -> int:
    if args.mod is not None:
        values = mf.tau_mod(args.mod, args.limit)
        rows = [(n, int(values[n])) for n in range(1, args.limit + 1)]
        label = f"tau(n) mod {args.mod}"
    else:
        window = mf.tau_exact(args.limit)
        rows = [(n, window.tau(n)) for n in range(1, args.limit + 1)]
        label = "tau(n)"
    if args.format == "json":
        print(json.dumps({"label": label, "values": {str(n): v for n, v in rows}}))
    else:
        for n, v in rows:
            print(f"{n} {v}")
    return EXIT_OK


def _cmd_count(args) -> int:
    c = mu.count_f(args.case, args.x)
    if args.format == "json":
        print(json.dumps({"case": args.case, "x": args.x, "count": c}))
    else:
        print(c)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cases = None
    if args.case and args.case != "all":
        cases = [args.case]
    results = run_checks(cases)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{status} [{r.case}] {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one line on stderr (exit 2)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Checks that involve more than one argument; a failure is a usage error."""
    if args.command == "lvalue" and args.modulus in GENERATORS:
        size = euler_phi(args.modulus)
        if not -size <= args.index < size:
            parser.error(
                f"argument --index: must lie in [-{size}, {size - 1}] for modulus {args.modulus}"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lrlab",
        description="Second-order constants for tau-divisibility and sum-of-two-squares counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("table1", help="six-case summary table")
    common(p, ("text", "json", "csv"))
    p.add_argument("--case", action="append", choices=mu.TABLE_CASES, help="restrict to a case (repeatable)")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("constant", help="one case's constants")
    common(p)
    p.add_argument("--case", required=True, choices=mu.TABLE_CASES)
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("lvalue", help="L^(k)(1, chi_c^j mod m)")
    common(p)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--index", type=int, required=True, help="character index j (chi = chi_c^j)")
    p.add_argument("--derivative", type=int, default=0)
    p.set_defaults(func=_cmd_lvalue)

    p = sub.add_parser("gammak", help="generalized Euler constant gamma_k(r, m)")
    common(p)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(func=_cmd_gammak)

    p = sub.add_parser("hf", help="H_f(x) for one case")
    common(p)
    p.add_argument("--case", required=True, choices=sorted(mu.CASES))
    p.add_argument("--x", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_hf)

    p = sub.add_parser("tau", help="tau(n), exact or mod q")
    common(p)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--mod", type=int, default=None, choices=(2, 3, 5, 7, 23, 691))
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("count", help="counting function for one case")
    common(p)
    p.add_argument("--case", required=True, choices=sorted(mu.CASES))
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="verification gate")
    p.add_argument("--case", default="all", choices=("all",) + ALL_CASES)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(parser, args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
