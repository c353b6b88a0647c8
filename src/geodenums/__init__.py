"""Exact-arithmetic kernel for hyper-Catalan and Geode numbers.

The hyper-Catalan series S[t_1..t_r] solves S = 1 + sum_k t_k S^{k+1}; the
Geode series G is the exact quotient (S - 1) / (t_1 + ... + t_r).  This
package computes both from the defining equation over arbitrary-precision
integers and verifies every closed form, evaluation identity, partition-sum
identity and telescoping certificate attached to them.
"""

from .mpoly import (
    ExpVec,
    NonzeroConstantError,
    NotDivisibleError,
    OutOfRangeError,
    TruncatedSeries,
    UnivariateSeries,
    VariableCountMismatchError,
    coeff,
    constant_series,
    divide_exact_by_s1,
    iter_exponents,
    mul,
    s1_series,
    series_to_dict,
    sub,
    substitute_signed,
)
from .hypercat import (
    functional_residual,
    hyper_catalan,
    solve_S,
)
from .geode import (
    GeodeTable,
    eval_alternating,
    eval_general,
    geode_closed_2var,
    geode_closed_shifted,
    geode_closed_two_nonzero,
    geode_recurrence_check,
    geode_series,
)
from .identities import (
    alternating_partition_sum,
    binom_general,
    claim1_sum,
    claim2_ct,
    claim2_sum,
    partition_sum_main,
)
from .wz import (
    check_certificate_R,
    check_wz1,
    check_wz2,
)
from .report import Case, VerifyReport

__version__ = "0.1.0"
