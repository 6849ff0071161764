"""Landau-Ramanujan-type counting constants.

Second-order constants of the counting functions for the divisibility of
Ramanujan's tau(n) by q in {2, 3, 5, 7, 23, 691} and for sums of two
squares: exact desk-scale oracles, budgeted L-function and prime-sum
evaluation, and the claim verdicts, plus the `lrlab` command-line front end.
"""

from .budget import ValueWithBudget
from .constants import (
    CLAIM_FALSE,
    INCONCLUSIVE,
    ConstantReport,
    b691_approx,
    b691_character_sums,
    first_order_C5,
    landau_ramanujan_K,
    second_order_constant,
    table1,
)
from .characters import character_group, generator_character, kronecker_character
from .errors import (
    ConsistencyError,
    InvalidArgumentError,
    LrlabError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedCaseError,
)
from .lseries import (
    closed_form_l_values,
    euler_gamma_value,
    gamma_k,
    l_derivative_at_1,
    l_value,
    prime_class_sum,
    zeta_value,
)
from .modforms import lambda_mod3, odd_tau_count, tau_exact, tau_mod
from .multfn import (
    CASES,
    TABLE_CASES,
    CaseSpec,
    count_f,
    dirichlet_series_truncated,
    f_sieve,
    h_f,
)
from .primes import sieve_primes

__version__ = "0.1.0"
