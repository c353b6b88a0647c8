"""The hyper-Catalan series, computed two independent ways.

S[t_1..t_r] is the unique formal series with constant term 1 satisfying

    S = 1 + t_1 S^2 + t_2 S^3 + ... + t_r S^{r+1}.

Its coefficients C[m_1..m_r] are the hyper-Catalan numbers; the r = 1 column
is the Catalan numbers and a single t_k gives a Fuss-Catalan family.

``solve_S`` obtains S from the defining equation, one fixed-point pass per
total degree, and serves as the ground-truth oracle for the whole package;
it keeps no state between calls.  ``hyper_catalan`` is the independent
closed form.  Agreement of the two is itself one of the verification suites.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .mpoly import (
    TruncatedSeries,
    add,
    constant_series,
    mul,
    sub,
    times_variable,
    with_truncation,
)


def solve_S(r: int, max_degree: int) -> TruncatedSeries:
    """Series solution of S = 1 + sum_k t_k S^{k+1}, exact through max_degree.

    Starts from alpha = 1 at truncation 0.  For each d = 1..max_degree it
    lifts alpha to truncation d and runs one pass alpha <- 1 + sum_k t_k
    alpha^{k+1} at truncation d.  Layer d of the right side reads only the
    layers of alpha below d, which are already exact, so the pass fixes
    layer d; no convergence test is needed.  Every call builds a new series.
    """
    if r < 1:
        raise ValueError(f"need at least one variable, got r={r}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    alpha = constant_series(r, 0, 1)
    for d in range(1, max_degree + 1):
        alpha = with_truncation(alpha, d)
        total = constant_series(r, d, 1)
        power = alpha
        for k in range(1, r + 1):
            power = mul(power, alpha)
            total = add(total, times_variable(power, k))
        alpha = total
    return alpha


def functional_residual(s: TruncatedSeries) -> TruncatedSeries:
    """1 - S + sum_k t_k S^{k+1}; the zero series iff S solves the equation
    through its truncation order."""
    r = s.nvars
    residual = sub(constant_series(r, s.trunc, 1), s)
    power = s
    for k in range(1, r + 1):
        power = mul(power, s)
        residual = add(residual, times_variable(power, k))
    return residual


def hyper_catalan(m: Sequence[int]) -> int:
    """Closed form for the coefficient C[m] of S.

    With w = sum (k+1) m_k and l = sum m_k this is w! / ((1+w-l)! * prod m_k!),
    i.e. the Lagrange-inversion multinomial with the leading 1/(1+w) factor
    absorbed.  Always an exact integer division.
    """
    m = tuple(m)
    if any(e < 0 for e in m):
        raise ValueError(f"negative exponent in {m}")
    w = sum((k + 1) * e for k, e in enumerate(m, start=1))
    den = factorial(1 + w - sum(m))
    for e in m:
        den *= factorial(e)
    value, rem = divmod(factorial(w), den)
    if rem:
        raise ArithmeticError(f"closed form for {m} did not divide exactly")
    return value
