#!/usr/bin/env python3
"""Generalized Euler constants and L-values at s = 1.

gamma_k(r, m) is the constant term of sum_{n<=x, n=r(m)} log^k(n)/n after
removing log^(k+1)(x)/(m(k+1)).  Non-principal L-values and derivatives at
s = 1 are finite character combinations of these constants:

    L^(k)(1, chi) = (-1)^k sum_{r=1}^m chi(r) gamma_k(r, m).

This script shows the machinery on the moduli used by the tau cases,
including the closed forms it must reproduce.
"""

import math

from lrlab import closed_form_l_values, gamma_k, l_derivative_at_1
from lrlab.characters import character_group, generator_character, kronecker_character

print("gamma_0(0, 1) =", gamma_k(0, 1, 0), "  (Euler's constant)")
print("gamma_1(0, 1) =", gamma_k(0, 1, 1), "  (first Stieltjes constant)")

total = math.fsum(gamma_k(r, 3, 0).value for r in (1, 2, 3))
print(f"partition identity: sum_r gamma_0(r,3) = {total:.15f}")

print("\nquadratic characters, closed forms vs the gamma route:")
for d, tag in ((-7, "chi_minus7"), (-23, "chi_minus23")):
    chi = kronecker_character(d)
    num = l_derivative_at_1(chi, 0).value.real
    print(f"  L(1, chi_{d}) = {num:.12f}   closed form {closed_form_l_values(tag):.12f}")
    print(f"  L'(1, chi_{d}) = {l_derivative_at_1(chi, 1)}")

print("\nmod 5: the quartic character chi_c (chi_c(2) = i) and chi_5:")
chi_c = generator_character(5, 1)
chi_5 = generator_character(5, 2)
rat_c = l_derivative_at_1(chi_c, 1) / l_derivative_at_1(chi_c, 0)
rat_5 = l_derivative_at_1(chi_5, 1) / l_derivative_at_1(chi_5, 0)
print("  L'/L(1, chi_c) =", rat_c)
print("  L'/L(1, chi_5) =", rat_5)
pair = l_derivative_at_1(chi_c, 0) * l_derivative_at_1(chi_c, 0).conjugate()
print(f"  L(1,chi_c) L(1,chi_c~) = {pair.value.real:.12f}  (2 pi^2/25 = {2*math.pi**2/25:.12f})")

print("\nmod 691: 690 characters, one inverse DFT; the odd/even ratio sums")
group = character_group(691)
# a character is an index j (chi_c^j); its conjugate is the index -j mod 690
conj = generator_character(691, -1)
print(f"  group size {len(group)}, conj(chi_c) = chi_c^{conj.index}")
print(f"  L(1, chi_c) = {l_derivative_at_1(group[1], 0)}, L(1, chi_c^{conj.index}) = {l_derivative_at_1(conj, 0)}")
from lrlab import b691_character_sums

odd, even = b691_character_sums()
print("  sum over odd powers  =", odd)
print("  sum over even powers =", even)
