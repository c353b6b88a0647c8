"""The Geode series G and its closed forms and evaluations.

S - 1 factors exactly as (t_1 + ... + t_r) * G; the coefficients G[m] are the
Geode numbers.  This module extracts G from the series oracle, dividing the
solver's packed layers (``_geode_layers``, which ``geodenums table`` writes
from) and unpacking the quotient once, and implements every closed form and
substitution evaluation for it:

  * geode_closed_2var        -- two-variable coefficients G[m1, m2]
  * geode_closed_shifted     -- G with two adjacent nonzero slots a-1, a
  * geode_closed_two_nonzero -- G with any two nonzero slots s < t
  * eval_alternating         -- G[-f, f, ..., -f, f] = sum a^n f^n
  * eval_general             -- weighted variant with arbitrary multipliers
  * geode_recurrence_check   -- sum_k G[m - e_k] = C[m]

Closed forms divide factorials; every division asserts exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb, factorial
from typing import Sequence

from .hypercat import _solve_layers, hyper_catalan
from .mpoly import (
    Layers,
    OutOfRangeError,
    TruncatedSeries,
    UnivariateSeries,
    _divide_layers,
    _pack_layers,
    _s1_multiple_mismatch,
    _unpack_terms,
    coeff,
    substitute_signed,
)


@dataclass(frozen=True)
class GeodeTable:
    """The Geode series in r variables through a fixed total degree."""

    nvars: int
    trunc: int
    series: TruncatedSeries

    def coefficient(self, m: Sequence[int]) -> int:
        return coeff(self.series, m)

    def factorization_holds(self) -> bool:
        """Re-check S - 1 == (t_1 + ... + t_r) * G through trunc + 1.

        S is solved here, independently of the table, and compared on packed
        layers with the product, which must leave nothing above trunc + 1:
        a term of the table above trunc fails the check.
        """
        r, trunc = self.nvars, self.trunc
        if any(sum(m) > trunc for m in self.series.terms):
            return False
        shift, layers = _solve_layers(r, trunc + 1)
        layers[0] = []  # S - 1: layer 0 of S is exactly [(0, 1)]
        quotient = _pack_layers(self.series.terms, r, trunc, shift)
        return _s1_multiple_mismatch(quotient, layers, r, shift) is None


def geode_series(r: int, max_degree: int) -> GeodeTable:
    """Extract G = (S - 1) / (t_1 + ... + t_r) from the oracle.

    The layers of ``_geode_layers``, unpacked once: S solved through
    max_degree + 1, its packed layers divided exactly
    (``mpoly._divide_layers``, which checks the quotient by
    re-multiplication), so the quotient is exact through max_degree.
    Divisibility is guaranteed; a NotDivisibleError here means a bug, not a
    property of the input.  Every call builds a new table.
    """
    shift, quotient = _geode_layers(r, max_degree)
    terms = _unpack_terms(chain.from_iterable(quotient), r, shift)
    return GeodeTable(r, max_degree, TruncatedSeries(r, max_degree, terms))


def _geode_layers(r: int, max_degree: int) -> tuple[int, Layers]:
    """The packing shift and the packed layers 0..max_degree of G, the
    quotient ``geode_series`` unpacks and ``geodenums table`` writes."""
    shift, layers = _solve_layers(r, max_degree + 1)
    layers[0] = []  # S - 1: layer 0 of S is exactly [(0, 1)]
    return shift, _divide_layers(layers, r, shift)


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"expected {num} divisible by {den}")
    return q


def geode_closed_2var(m1: int, m2: int) -> int:
    """G[m1, m2] = (2m1+3m2+3)! / ((2m1+2m2+3)(m1+m2+1)(m1+2m2+2)! m1! m2!)."""
    if m1 < 0 or m2 < 0:
        raise ValueError("exponents must be nonnegative")
    den = (
        (2 * m1 + 2 * m2 + 3)
        * (m1 + m2 + 1)
        * factorial(m1 + 2 * m2 + 2)
        * factorial(m1)
        * factorial(m2)
    )
    return _exact_div(factorial(2 * m1 + 3 * m2 + 3), den)


def geode_closed_shifted(a: int, m_a: int, m_a1: int) -> int:
    """Geode coefficient whose two nonzero slots are the adjacent variables
    a-1 and a (i.e. a-2 leading zero exponents), with exponents m_a, m_a1.

    For a = 2 this is exactly geode_closed_2var.
    """
    if a < 2:
        raise ValueError(f"need a >= 2, got {a}")
    if m_a < 0 or m_a1 < 0:
        raise ValueError("exponents must be nonnegative")
    m = m_a + m_a1
    den = (
        (a * (m + 1) + 1)
        * (m + 1)
        * factorial((a - 1) * m_a + a * (m_a1 + 1))
        * factorial(m_a)
        * factorial(m_a1)
    )
    return _exact_div(factorial(a * m_a + (a + 1) * (m_a1 + 1)), den)


def geode_closed_two_nonzero(s: int, t: int, n: int, i: int) -> int:
    """Geode coefficient with exponent n-1-i on variable s and i on variable
    t > s, all other exponents zero:

        (1/n) * sum_{j=0}^{i} (-1)^{i-j} C(n,j) C((s+1)n + (t-s)j, n-1)

    The division by n is always exact and is asserted.
    """
    if not 1 <= s < t:
        raise ValueError(f"need 1 <= s < t, got s={s}, t={t}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= i <= n - 1:
        raise ValueError(f"need 0 <= i <= n-1, got i={i}")
    total = 0
    for j in range(i + 1):
        sign = -1 if (i - j) % 2 else 1
        total += sign * comb(n, j) * comb((s + 1) * n + (t - s) * j, n - 1)
    return _exact_div(total, n)


def alternating_weights(a: int) -> tuple[int, ...]:
    """(-1, +1, -1, +1, ...) over 2a slots."""
    return tuple(-1 if k % 2 else 1 for k in range(1, 2 * a + 1))


def eval_alternating(a: int, max_order: int) -> UnivariateSeries:
    """G[-f, f, ..., -f, f] in 2a variables; the f^n coefficient is a^n."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    table = geode_series(2 * a, max_order)
    return substitute_signed(table.series, alternating_weights(a))


def general_weights(c: Sequence[int]) -> tuple[int, ...]:
    """Weight pattern (-c_a, c_1, -c_1, c_2, -c_2, ..., c_{a-1}, -c_{a-1}, c_a)."""
    a = len(c)
    weights = [-c[a - 1]]
    for i in range(a - 1):
        weights.extend((c[i], -c[i]))
    weights.append(c[a - 1])
    return tuple(weights)


def eval_general(a: int, c: Sequence[int], max_order: int) -> UnivariateSeries:
    """G[-c_a f, c_1 f, -c_1 f, ..., c_a f] in 2a variables; the f^n
    coefficient is (2a c_a - c_1 - ... - c_a)^n."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    c = tuple(c)
    if len(c) != a:
        raise ValueError(f"need {a} multipliers, got {len(c)}")
    table = geode_series(2 * a, max_order)
    return substitute_signed(table.series, general_weights(c))


def geode_recurrence_check(table: GeodeTable, m: Sequence[int]) -> bool:
    """Whether sum over k with m_k >= 1 of G[m - e_k] equals C[m].

    This reads the factorization S - 1 = (t_1+...+t_r) G coefficient-wise,
    so it must hold for every nonzero m.  Raises OutOfRangeError when the
    table is truncated below total degree |m| - 1.
    """
    m = tuple(m)
    if len(m) != table.nvars:
        raise ValueError(f"exponent vector {m} has length {len(m)}, expected {table.nvars}")
    if not any(m):
        raise ValueError("m must not be all zeros")
    if sum(m) - 1 > table.trunc:
        raise OutOfRangeError(
            f"need Geode table through degree {sum(m) - 1}, have {table.trunc}"
        )
    total = 0
    for k, e in enumerate(m):
        if e:
            total += table.coefficient(m[:k] + (e - 1,) + m[k + 1 :])
    return total == hyper_catalan(m)

