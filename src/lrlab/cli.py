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

Each command returns its JSON payload and its text lines, and main prints
the text or, with --format json, the JSON (table1 also prints csv).  Every
numeric output carries its error budget.  Output is deterministic: fixed
10-significant-digit formatting, ordered reductions, no locale-dependent
pieces.  The CLI checks no argument itself: argparse reads each flag's type
or tag, and the library refuses a value outside its domain with its own
message (lrlab._args), such as a non-finite hf --x, an lvalue --index
outside the character group, or a tau --mod outside the six moduli.
Exit codes: 0 success, 1 a failed verify check, 2 argument/usage error,
3 computational precondition failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction

from . import _args
from . import constants as co
from . import lseries as ls
from . import modforms as mf
from . import multfn as mu
from .budget import ValueWithBudget
from .characters import character_group
from .errors import InvalidArgumentError, LrlabError
from .verify import ALL_CASES, run_checks

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _json(o):
    """The JSON form of what json.dumps cannot write itself: a ValueWithBudget is
    {"value", "budget"} (a complex value as {"re", "im"}), a Fraction its str,
    and a ConstantReport its fields in order, None and empty ones left out."""
    if isinstance(o, ValueWithBudget):
        value = o.value
        if isinstance(value, complex):
            value = value.real if value.imag == 0.0 else {"re": value.real, "im": value.imag}
        return {"value": value, "budget": o.budget}
    if isinstance(o, co.ConstantReport):
        items = ((f.name, getattr(o, f.name)) for f in fields(o))
        # the checkpoints ((x, H_f(x)), ...) as {x: H_f(x)}
        return {k: dict(v) if k == "h_checkpoints" else v for k, v in items if v is not None and v != ()}
    if isinstance(o, Fraction):
        return str(o)
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def _report_lines(r: co.ConstantReport):
    yield f"case {r.case}: tau = {r.tau}, delta = {r.delta}"
    for x, h in r.h_checkpoints:
        yield f"  H_f({x:.10g}) = {h}"
    yield f"  B_f = {r.b_f}"
    yield f"  C_2 = {r.c2}   claimed {r.c2_ramanujan}   -> {r.verdict}"
    if r.first_order is not None:
        yield f"  first-order constant = {r.first_order}"
    if r.lambda_c2 is not None:
        yield f"  C_2(lambda) = {r.lambda_c2}   claimed 1/2"
    for note in r.notes:
        yield f"  note: {note}"


def _cmd_table1(args):
    reports = co.table1(args.case)
    if args.format != "csv":
        return reports, [line for r in reports for line in _report_lines(r)]
    lines = ["case,H_1e5,H_1e6,B_f,B_f_budget,C2,C2_ramanujan,verdict"]
    for r in reports:
        h5, h6 = (v.value for _, v in r.h_checkpoints)
        lines.append(
            f"{r.case},{h5:.10g},{h6:.10g},{r.b_f.value:.10g},{r.b_f.budget:.10g},"
            f"{r.c2.value:.10g},{r.c2_ramanujan},{r.verdict}"
        )
    return reports, lines


def _cmd_constant(args):
    report = co.second_order_constant(args.case)
    return report, _report_lines(report)


def _cmd_lvalue(args):
    group = character_group(args.modulus)
    chi = group[_args.integer(args.index, "index", -len(group), len(group) - 1)]  # -1 is the last
    v = ls.l_derivative_at_1(chi, args.derivative)
    payload = {"modulus": args.modulus, "index": args.index, "derivative": args.derivative, "L": v}
    return payload, [f"L^({args.derivative})(1, chi_c^{args.index} mod {args.modulus}) = {v}"]


def _cmd_gammak(args):
    v = ls.gamma_k(args.residue, args.modulus, args.k)
    payload = {"residue": args.residue, "modulus": args.modulus, "k": args.k, "gamma": v}
    return payload, [f"gamma_{args.k}({args.residue}, {args.modulus}) = {v}"]


def _cmd_hf(args):
    v = mu.h_f(args.case, args.x)
    return {"case": args.case, "x": args.x, "h_f": v}, [f"H_f({args.case}, {args.x:.10g}) = {v}"]


def _cmd_tau(args):
    if args.mod is None:
        label, values = "tau(n)", mf.tau_exact(args.limit).values
    else:
        label, values = f"tau(n) mod {args.mod}", mf.tau_mod(args.mod, args.limit)[1:].tolist()
    rows = dict(enumerate(values, 1))
    return {"label": label, "values": rows}, [f"{n} {v}" for n, v in rows.items()]


def _cmd_count(args):
    c = mu.count_f(args.case, args.x)
    return {"case": args.case, "x": args.x, "count": c}, [str(c)]


def _cmd_verify(args):
    results = run_checks(None if args.case == "all" else [args.case])
    passed = sum(r.passed for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'} [{r.case}] {r.name}: {r.detail}" for r in results]
    lines.append(f"{passed}/{len(results)} checks passed")
    return None, lines, passed == len(results)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one line on stderr (exit 2)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lrlab",
        description="Second-order constants for tau-divisibility and sum-of-two-squares counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("text", "json")):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, format="text")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        return p

    p = command("table1", _cmd_table1, "six-case summary table", ("text", "json", "csv"))
    p.add_argument("--case", action="append", choices=mu.TABLE_CASES, help="restrict to a case (repeatable)")

    p = command("constant", _cmd_constant, "one case's constants")
    p.add_argument("--case", required=True, choices=mu.TABLE_CASES)

    p = command("lvalue", _cmd_lvalue, "L^(k)(1, chi_c^j mod m)")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--index", type=int, required=True, help="character index j (chi = chi_c^j)")
    p.add_argument("--derivative", type=int, default=0)

    p = command("gammak", _cmd_gammak, "generalized Euler constant gamma_k(r, m)")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--k", type=int, default=0)

    p = command("hf", _cmd_hf, "H_f(x) for one case")
    p.add_argument("--case", required=True, choices=sorted(mu.CASES))
    p.add_argument("--x", type=float, required=True)

    p = command("tau", _cmd_tau, "tau(n), exact or mod q")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--mod", type=int)

    p = command("count", _cmd_count, "counting function for one case")
    p.add_argument("--case", required=True, choices=sorted(mu.CASES))
    p.add_argument("--x", type=int, required=True)

    p = command("verify", _cmd_verify, "verification gate", ())
    p.add_argument("--case", default="all", choices=("all",) + ALL_CASES)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        payload, lines, *passed = args.func(args)  # verify adds whether every check passed
    except InvalidArgumentError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.format == "json":
        indent = 2 if isinstance(payload, (list, co.ConstantReport)) else None  # reports span lines
        print(json.dumps(payload, indent=indent, default=_json))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if all(passed) else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
