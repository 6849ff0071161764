#!/usr/bin/env python3
"""Reproduce the six-row summary table and the claim verdicts.

For each case (sums of two squares, and tau-divisibility by 5, 7, 3, 691,
23) this prints the H_f checkpoints, the second-order constant pair
(B_f, C2), the claimed second-order value, and the verdict, then shows why
the verdict follows: the gap |C2 - claimed| dwarfs the error budget.
"""

import time

from lrlab import table1

t0 = time.time()
reports = table1()
elapsed = time.time() - t0

print(f"{'case':>12} {'H(1e5)':>9} {'H(1e6)':>9} {'B_f':>11} {'C2':>11} {'claimed':>8} verdict")
for r in reports:
    h = {x: v.value for x, v in r.h_checkpoints}
    print(
        f"{r.case:>12} {h[10**5]:>9.4f} {h[10**6]:>9.4f} {r.b_f.value:>11.6f} "
        f"{r.c2.value:>11.6f} {str(r.c2_ramanujan):>8} {r.verdict}"
    )

print(f"\ncomputed in {elapsed:.1f}s\n")

print("why the verdicts hold: gap vs budget")
for r in reports:
    gap = abs(r.c2.value - float(r.c2_ramanujan))
    print(f"  {r.case:>12}: |C2 - claimed| = {gap:.6f}  vs budget {r.c2.budget:.2e}")

print("\nnotes carried by the reports:")
for r in reports:
    for note in r.notes:
        print(f"  {r.case}: {note}")

r3 = next(r for r in reports if r.case == "q3")
print(
    f"\npartition companion: C2(lambda) = C2(q3) - log(3)/2 = {r3.lambda_c2.value:.6f}"
    " != 1/2, so the partition-count claim fails too."
)
