"""The Geode series G and its closed forms and evaluations.

S - 1 factors exactly as (t_1 + ... + t_r) * G; the coefficients G[m] are the
Geode numbers.  This module extracts G from the series oracle, by the
power recurrence of ``hypercat._solve_layers`` seeded for G_j = (S^j - 1) /
(t_1 + ... + t_r), whose G_1 is G (``_solve_layers(r, D, geode=True)``,
which ``geodenums table`` writes from), with no division, unpacking the
layers once, and implements every closed form and substitution
evaluation for it:

  * geode_closed_2var        -- two-variable coefficients G[m1, m2]
  * geode_closed_shifted     -- G with two adjacent nonzero slots a-1, a
  * geode_closed_two_nonzero -- G with any two nonzero slots s < t
  * eval_alternating         -- G[-f, f, ..., -f, f] = sum a^n f^n
  * eval_general             -- weighted variant with arbitrary multipliers
  * geode_recurrence_check   -- sum_k G[m - e_k] = C[m]

Closed forms divide factorials; every division asserts exactness.
``geode_work`` prices a G table for the guards of ``geodenums``,
``factorization_work`` the factorization check, and the cost functions at
the end of this module the closed forms and the recurrence layers
(``recurrence_break``) that ``verify`` checks against it.
"""

from __future__ import annotations

from itertools import chain
from math import comb, factorial
from typing import Sequence

from .hypercat import _coefficient_bits, _solve_layers, hyper_catalan, solve_work
from .mpoly import (
    OutOfRangeError,
    TruncatedSeries,
    UnivariateSeries,
    _Frozen,
    _pack_layers,
    _s1_multiple_mismatch,
    _unpack_terms,
    coeff,
    iter_exponents,
    substitute_signed,
)

class GeodeTable(_Frozen):
    """The Geode series in r variables through a fixed total degree."""

    __slots__ = ("nvars", "trunc", "series")

    def __init__(self, nvars: int, trunc: int, series: TruncatedSeries) -> None:
        self._freeze(nvars, trunc, series)

    def coefficient(self, m: Sequence[int]) -> int:
        return coeff(self.series, m)

    def factorization_holds(self) -> bool:
        """Re-check S - 1 == (t_1 + ... + t_r) * G through trunc + 1.

        S is solved here, separately from the table, and compared on packed
        layers with the product, which must leave nothing above trunc + 1:
        a term of the table above trunc fails the check.  The table comes
        from the same solver seeded for G, so this compares two solves
        that share their window code; a bug in that code which both seeds
        share is caught elsewhere: for S by ``hyper_catalan``, the
        independent closed form, and for G by the closed forms of this
        module and the check of sum_k G[m - e_k] = C[m] that the
        ``recurrence`` suite and the benchmark's output checks make.
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

    The layers of ``_solve_layers(r, max_degree, geode=True)``, unpacked
    once: the power recurrence that solves S, with layer 0 of the powers
    seeded 1, 2, ..., so it yields G_j = (S^j - 1) / (t_1 + ... + t_r) in
    their place, exact through max_degree with no division.  Every call
    builds a new table.
    """
    shift, quotient = _solve_layers(r, max_degree, geode=True)
    terms = _unpack_terms(chain.from_iterable(quotient), r, shift)
    return GeodeTable(r, max_degree, TruncatedSeries(r, max_degree, terms))


def geode_work(r: int, max_degree: int) -> int:
    """Estimated work of ``geode_series(r, max_degree)``, in the units of
    ``hypercat.solve_work``: its seeded solve ``_solve_layers(r,
    max_degree, geode=True)``, priced by ``solve_work(r, max_degree,
    geode=True)``, and the work on its entries.

    Each of the N = C(r + D, r) entries, D = max_degree, is unpacked into
    r fields, checked by ``TruncatedSeries`` and, by ``eval_alternating``
    or ``eval_general``, weighted by r powers and added into its degree's
    coefficient, so it counts 32 + 3 r + W / 64 for coefficients below
    2^W, W the seeded solve's bound (``hypercat._coefficient_bits``).
    Calibration, in process on one CPU of a 2-core VM with Python 3.11,
    for r = 1-100 and D = 1-1000 wherever a call took 0.1 ms or more
    (below that, a fixed cost of about 20 us per call dominates): the
    unpacking and one substitution took at most 0.77 of that term's time,
    and a whole ``geode_series`` with one substitution at most 0.59 of
    the estimate's."""
    solve = solve_work(r, max_degree, geode=True)
    if solve >= 1 << 64:  # past any limit; solve_work answers so for huge arguments
        return solve
    width = _coefficient_bits(r, max_degree, geode=True)
    return solve + comb(r + max_degree, r) * (32 + 3 * r + width // 64)


def factorization_work(r: int, max_degree: int) -> int:
    """Estimated work of ``GeodeTable.factorization_holds`` on the G table
    in r variables through max_degree, in the units of
    ``hypercat.solve_work``: its S solve through max_degree + 1, priced by
    ``solve_work``, whose count of table entries covers the dividend's
    dict and its comparison, and the product of the table by t_1 + ... +
    t_r, r C(r + D, r) pairs of one short factor, D = max_degree, each
    counting 16 + W / 64 for the table's coefficients below 2^W, W as in
    ``geode_work``.  Calibration, as there: the whole check took at most
    0.53 of the estimate's time."""
    solve = solve_work(r, max_degree + 1)
    if solve >= 1 << 64:
        return solve
    width = _coefficient_bits(r, max_degree, geode=True)
    return solve + r * comb(r + max_degree, r) * (16 + width // 64)


def eval_work(a: int, *args: object) -> int:
    """Estimated work of ``eval_alternating(a, max_order)`` and of
    ``eval_general(a, c, max_order)``: the G table in 2a variables through
    max_order that each substitutes into, priced by ``geode_work``, whose
    per-entry term covers the substitution."""
    return geode_work(2 * a, args[-1])


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


def recurrence_break(table: GeodeTable, degree: int) -> tuple[int, ...] | None:
    """The first monomial of total degree `degree`, in ``iter_exponents``
    order, where ``geode_recurrence_check`` fails on `table`, or None."""
    for m in iter_exponents(table.nvars, degree):
        if not geode_recurrence_check(table, m):
            return m
    return None


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



# ---------------------------------------------------------------------------
# the work of the closed forms and checks a ``verify`` unit calls, in the
# units of ``hypercat.solve_work``, calibrated in process on one CPU of a
# 2-core VM with Python 3.11 with the case that checks each value: the
# closed form, its table lookup, its case and the report line that prints
# the value twice.


def _factorial_work(weight: int) -> int:
    """Work of a closed form whose largest factorial is weight!, with its
    case: CPython's factorial and the decimal printing of a value of about
    weight log2(weight) bits both grow about as weight^2, counted weight^2
    / 256, and a case counts 64.  The closed forms alone took at most 0.47
    of the estimate's time up to weight 900, which leaves the rest to the
    case that prints the value twice; whole ``thm1`` units at degrees 100
    and 200, table and cases included, took 0.7 of their price in units of
    a solve timed beside them."""
    return 64 + weight * weight // 256


def closed_shifted_work(a: int, m_a: int, m_a1: int) -> int:
    """Estimated work of ``geode_closed_shifted(a, m_a, m_a1)`` and its case;
    at a = 2, of ``geode_closed_2var(m_a, m_a1)`` too, whose largest
    factorial is the same."""
    return _factorial_work(a * m_a + (a + 1) * (m_a1 + 1))


def closed_two_nonzero_work(s: int, t: int, n: int, i: int) -> int:
    """Estimated work of ``geode_closed_two_nonzero(s, t, n, i)``: i + 1
    terms, each two binomials with lower index at most n - 1 and upper
    index at most (s + 1) n + (t - s) i, which count n bit_length(upper)
    / 16 and 8 more; a call counts 32.  Calibration: at most 0.42 of the
    estimate's time for n <= 50."""
    upper = (s + 1) * n + (t - s) * i
    return 32 + (i + 1) * (8 + n * upper.bit_length() // 16)


def recurrence_work(r: int, max_degree: int, degree: int) -> int:
    """Estimated work of ``recurrence_break(table, degree)``, with `table`
    the value of ``geode_series(r, max_degree)``: each of the C(r + degree
    - 1, degree) monomials reads r coefficients and computes one
    ``hyper_catalan`` of weight w <= (r + 1) degree, counted 96 + 16 r +
    w^2 / 256.  Calibration: at most 0.82 of the estimate's time for r =
    4-6 and degrees 4-15."""
    if min(r - 1, degree) >= 64:  # C(r + degree - 1, degree) >= 2^64: past any limit
        return 1 << 64
    weight = (r + 1) * degree
    return comb(r + degree - 1, degree) * (96 + 16 * r + weight * weight // 256)
