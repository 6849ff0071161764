#!/usr/bin/env python3
"""The exact desk-scale machinery behind the analytic constants.

Everything the floating-point side claims about the counting functions is
anchored to exact integer computations: tau(n) as exact integers, the
congruence shortcuts, the Wilton classes, the parity formula, and the
partition-count coupling.
"""

import numpy as np

from lrlab import count_f, f_sieve, odd_tau_count, sieve_primes, tau_exact, tau_mod
from lrlab.modforms import lambda_mod3
from lrlab.multfn import class_index

w = tau_exact(20)
print("tau(1..10)      =", w.values[:10])
print("tau(2) mod 23   =", tau_mod(23, 4)[2], " (from x E(x) E(x^23); tau(2) = -24)")

print("\ncongruence shortcuts vs exact tau, n <= 20000:")
exact = tau_exact(20000)
for q in (2, 3, 5, 7, 23, 691):
    short = tau_mod(q, 20000)[1:]
    ok = all(int(short[n - 1]) == exact.tau(n) % q for n in range(1, 20001))
    print(f"  mod {q:>3}: {'exact match' if ok else 'MISMATCH'}")

print("\nthe q = 691 zero set below 11054 (multiples of 1381, plus 5527 and 8291):")
zeros = np.flatnonzero(~f_sieve("q691", 11053))[1:]
print(" ", zeros.tolist())
print("  count_f(q691, 5000) =", count_f("q691", 5000))

print("\nparity: #{n <= x : tau(n) odd} = floor((1 + sqrt x)/2)")
for x in (1, 80, 100, 10_000):
    print(f"  x = {x:>6}: {odd_tau_count(x)}")

print("\nWilton classes (U^2 + 23 V^2 table) vs tau(p) mod 23 (0 on S1, 22 on S2, 2 on S3):")
labels = ("S1", "S2", "S3", "P23")
primes = sieve_primes(9973).tolist()
form, t23 = class_index("q23", 9973), tau_mod(23, 9973)
for p in (2, 5, 23, 59, 101, 9973):
    print(f"  p = {p:>5}: {labels[form[primes.index(p)]]:>3}, tau(p) mod 23 = {t23[p]:>2}")

print("\npartition coupling: sum_{k<=x} l_k = sum_{n<=3x+1} t_n   (l from lambda mod 3)")
lam = lambda_mod3(2000)
t3 = tau_mod(3, 6001)
l_cum = np.cumsum(lam != 0)
t_cum = np.cumsum(t3[1:] != 0)
ok = all(int(l_cum[x]) == int(t_cum[3 * x]) for x in range(2001))
print("  holds for all x <= 2000:", ok)
