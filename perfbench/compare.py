#!/usr/bin/env python3
"""Compare two sets of saved benchmark reports.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds report-*.json files written by run.py (copy
perfbench/out/ after running each side with the same seeds).  For every
workload and trace mode present on both sides, prints each metric's median
per side and the change as a share of the base median, with the quartiles.

It flags any comparison whose stamps differ in Python, numpy, nproc or the
gmpy2 backend (`modforms` is about 6x slower on `oracles` without gmpy2),
reports whose 1-minute load average at the start exceeded BUSY_SHARE of
nproc (back-to-back runs alone keep it near 1), sides whose reports mix
code versions, and failed operations.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ENVIRONMENT = ("python", "numpy", "nproc", "gmpy2")
CODE = ("git_sha", "src_sha256")
BUSY_SHARE = 0.75


def load(directory: str) -> dict:
    groups: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "report-*.json"))):
        with open(path) as fh:
            report = json.load(fh)
        groups.setdefault((report["workload"], report["trace"]), []).append(report)
    return groups


def distinct(reports, keys) -> set:
    return {tuple(r["stamp"].get(k) for k in keys) for r in reports}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    flags = 0
    for key in sorted(set(base) & set(new)):
        a, b = base[key], new[key]
        print(f"== {key[0]} (trace {key[1]}): {len(a)} base reports, {len(b)} new reports")
        env = distinct(a + b, ENVIRONMENT)
        if len(env) > 1:
            flags += 1
            print(f"   FLAG: environment stamps differ {sorted(env, key=str)}")
        for side, reports in (("base", a), ("new", b)):
            if len(distinct(reports, CODE)) > 1:
                flags += 1
                print(f"   FLAG: {side} reports mix code versions")
            busy = [r["seed"] for r in reports
                    if r["stamp"]["loadavg"][0] > BUSY_SHARE * r["stamp"]["nproc"]]
            if busy:
                flags += 1
                print(f"   FLAG: {side} seeds {busy} started on a busy machine (load average)")
            if any(r["failed"] for r in reports):
                flags += 1
                print(f"   FLAG: {side} has failed operations")
        for name in a[0]["metrics"]:
            va = [r["metrics"][name] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            qa = statistics.quantiles(va, n=4) if len(va) > 1 else [ma] * 3
            qb = statistics.quantiles(vb, n=4) if len(vb) > 1 else [mb] * 3
            print(f"   {name:40s} {ma:12.6g} [{qa[0]:.4g}, {qa[2]:.4g}]  ->  "
                  f"{mb:12.6g} [{qb[0]:.4g}, {qb[2]:.4g}]  {change}")
    print(f"{flags} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
