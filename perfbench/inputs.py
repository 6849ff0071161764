"""Seeded inputs for the benchmark workloads.

The `oracles` workload has fixed inputs (the desk limits of the exact
oracles).  The `queries` workload draws a closed-loop stream of library
calls from a seed.  Continuous parameters are drawn from log-spaced integer
grids, so every call the stream can make has a recorded golden answer.
"""

from __future__ import annotations

import math
import random

# --- oracles -----------------------------------------------------------------

TAU_LIMIT = 100_000
TAU_MODULI = (2, 3, 5, 7, 23, 691)
LAMBDA_LIMIT = 20_000
COUNT_LIMIT = 10**7
COUNT_CASES = ("q2", "q3", "q5", "q7", "q23", "q691", "two_squares")

# --- queries -----------------------------------------------------------------

L_MODULI = (3, 4, 5, 7, 23, 691)
# Generator g of (Z/mZ)^* for each modulus; chi_c^j(g) = exp(2 pi i j / phi(m)).
GENERATORS = {3: 2, 4: 3, 5: 2, 7: 3, 23: 5, 691: 3}
K_VALUES = (0, 1, 2)
HF_CASES = ("two_squares", "q5", "q7", "q3", "q691", "q23")

GRID_PER_DECADE = 50


def log_grid(lo_exp: int, hi_exp: int) -> tuple[int, ...]:
    """Integers 10^lo_exp .. 10^hi_exp, GRID_PER_DECADE log-spaced points a decade."""
    steps = (hi_exp - lo_exp) * GRID_PER_DECADE
    return tuple(round(10 ** (lo_exp + i / GRID_PER_DECADE)) for i in range(steps + 1))


HF_GRID = log_grid(3, 6)
COUNT_GRID = log_grid(3, 5)
TAU_GRID = log_grid(2, 4)

# Share of each call kind in the stream, in the order drawn.
MIX = (
    ("l_derivative_at_1", 0.30),
    ("gamma_k", 0.20),
    ("h_f", 0.25),
    ("count_f", 0.15),
    ("tau_mod", 0.10),
)


def phi(m: int) -> int:
    return sum(1 for r in range(1, m + 1) if math.gcd(r, m) == 1)


def query_stream(seed: int, stream: int, index: int, size: int) -> list[tuple]:
    """The index-th batch of `size` calls of client `stream` under `seed`.

    Each call is a tuple (kind, *parameters); grid parameters are indices.
    The batch is stratified: each kind gets exactly its share of the batch,
    its moduli or cases in equal turns, and grid points spread evenly over
    the grid, so batches differ only in the random draws within each
    stratum and in their order.
    """
    rng = random.Random(f"{seed}/{stream}/{index}")
    calls = []
    for kind, share in MIX:
        count = round(share * size)
        for i in range(count):
            if kind == "l_derivative_at_1":
                m = L_MODULI[i % len(L_MODULI)]
                k = K_VALUES[i // len(L_MODULI) % len(K_VALUES)]
                calls.append((kind, m, rng.randrange(1, phi(m)), k))
            elif kind == "gamma_k":
                m = L_MODULI[i % len(L_MODULI)]
                k = K_VALUES[i // len(L_MODULI) % len(K_VALUES)]
                calls.append((kind, rng.randrange(1, m + 1), m, k))
            else:
                choices, grid = {
                    "h_f": (HF_CASES, HF_GRID),
                    "count_f": (COUNT_CASES, COUNT_GRID),
                    "tau_mod": (TAU_MODULI, TAU_GRID),
                }[kind]
                strata = math.ceil(count / len(choices))
                u = (i // len(choices) + rng.random()) / strata
                calls.append((kind, choices[i % len(choices)], int(u * len(grid))))
    rng.shuffle(calls)
    return calls


def call(lib, query):
    """Issue one query against the `lrlab` package namespace `lib`."""
    kind = query[0]
    if kind == "l_derivative_at_1":
        _, m, j, k = query
        return lib.l_derivative_at_1(lib.character_group(m)[j], k)
    if kind == "gamma_k":
        _, r, m, k = query
        return lib.gamma_k(r, m, k)
    if kind == "h_f":
        _, case, i = query
        return lib.h_f(case, float(HF_GRID[i]))
    if kind == "count_f":
        _, case, i = query
        return lib.count_f(case, COUNT_GRID[i])
    _, q, i = query
    return lib.tau_mod(q, TAU_GRID[i])
