"""The Geode series G and its closed forms and evaluations.

S - 1 factors exactly as (t_1 + ... + t_r) * G; the coefficients G[m] are the
Geode numbers.  This module extracts G from the series oracle, by the
power recurrence of ``hypercat._solve_layers`` seeded for G_j = (S^j - 1) /
(t_1 + ... + t_r), whose G_1 is G (``_solve_layers(r, D, geode=True)``,
which ``geodenums table`` writes from), with no division, unpacking the
layers once (``hypercat._solve_series``), and implements every closed
form and evaluation for it.

G_j = G_{j-1} + 1 + sum_k t_k G_{j+k} is an identity of series, so every
ring map that fixes the constants carries it to the images of the G_j,
with the same seed [G_j]_0 = j.  A check that reads G only on the image
of such a map solves that image and never builds the whole table:
``geode_support`` solves G on the monomials of a set T of slots (t_k -> 0
for k not in T), and ``eval_line`` solves G on a line (t_k -> w_k f):

  * geode_closed_shifted     -- G with two adjacent nonzero slots a-1, a;
                                at a = 2 the two-variable G[m1, m2]
  * geode_closed_two_nonzero -- G with any two nonzero slots s < t
  * eval_general             -- G[-c_a f, c_1 f, -c_1 f, ..., c_a f], the
                                line solve on the weights of c
  * eval_alternating         -- G[-f, f, ..., -f, f] = sum a^n f^n, which
                                is eval_general at c = (1, ..., 1)
  * geode_recurrence_check   -- sum_k G[m - e_k] = C[m]

Closed forms divide factorials; every division asserts exactness.
``geode_work`` prices a G table, or a support table, for the guards of
``geodenums``, ``alternating_work`` and ``general_work`` a line,
``factorization_work`` the factorization check, and the cost functions
at the end of this module the closed forms and the recurrence layers
(``recurrence_break``) that ``verify`` checks against it.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial
from operator import add
from typing import Sequence

from .hypercat import (
    _coefficient_bits, _exact_div, _solve_layers, _solve_series, hyper_catalan, solve_work
)
from .mpoly import (
    OutOfRangeError,
    TruncatedSeries,
    UnivariateSeries,
    _Frozen,
    _pack_layers,
    _s1_multiple_mismatch,
    coeff,
    iter_exponents,
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
    once (``_solve_series``): the power recurrence that solves S, with
    layer 0 of the powers seeded 1, 2, ..., so it yields G_j = (S^j - 1) /
    (t_1 + ... + t_r) in their place, exact through max_degree with no
    division.  Every call builds a new table.
    """
    return GeodeTable(r, max_degree, _solve_series(r, max_degree, geode=True))


def geode_support(r: int, max_degree: int, support: Sequence[int]) -> TruncatedSeries:
    """G in r variables through max_degree on the monomials of the slots
    `support`, an increasing sequence T in 1..r: its image under t_k -> 0
    for every k not in T, as a series in the variables t_k, k in T, in
    order.  The layers of the support solve ``_solve_layers(r,
    max_degree, geode=True, support=T)``, unpacked once (``_solve_series``);
    its work depends on |T| and max T, not on r.  Every call builds a new
    series."""
    return _solve_series(r, max_degree, geode=True, support=support)


def geode_work(r: int, max_degree: int, support: Sequence[int] | None = None) -> int:
    """Estimated work of ``geode_series(r, max_degree)``, or with `support`
    of ``geode_support(r, max_degree, support)``, in the units of
    ``hypercat.solve_work``: its seeded solve, priced by ``solve_work(r,
    max_degree, geode=True, support=support)``, and the work on its
    entries.

    Each of the N = C(n + D, n) entries, n = |T| variables (r for the full
    table) and D = max_degree, is unpacked into n fields, checked by
    ``TruncatedSeries`` and, by a substitution a check makes, weighted by
    n powers and added into its degree's coefficient, so it counts 32 +
    3 n + W / 64 for coefficients below 2^W, W the seeded solve's bound
    (``hypercat._coefficient_bits``).  Calibration, in process on one CPU
    of a 2-core VM with Python 3.11, for r = 1-100 and D = 1-1000
    wherever a call took 0.1 ms or more (below that, a fixed cost of about
    20 us per call dominates): the unpacking and one substitution took at
    most 0.77 of that term's time, and a whole ``geode_series`` with one
    substitution at most 0.59 of the estimate's."""
    solve = solve_work(r, max_degree, geode=True, support=support)
    if solve >= 1 << 64:  # past any limit; solve_work answers so for huge arguments
        return solve
    n, reach = (r, r) if support is None else (len(support), max(support))
    width = _coefficient_bits(n, reach, max_degree, geode=True)
    return solve + comb(n + max_degree, n) * (32 + 3 * n + width // 64)


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
    width = _coefficient_bits(r, r, max_degree, geode=True)
    return solve + r * comb(r + max_degree, r) * (16 + width // 64)


def line_work(r: int, max_order: int, weight_bits: int) -> int:
    """Estimated work of ``eval_line(weights, max_order)`` on r weights,
    each below 2^weight_bits in absolute value, in the units of
    ``hypercat.solve_work``.

    With D = max_order and J_d = 1 + (D - d) r, layer d = 1..D takes r
    windows of J_d entries and one prefix sum over J_d, so the solve makes
    r P products of a weight by an int, r P additions and P prefix sums,
    P = sum_{d=1}^{D} J_d = D + r D (D - 1) / 2, and holds at most 2 J_0
    ints at once.  Every int the line solve holds is sum_{|m|=d} c[m]
    prod_k w_k^{m_k} for the coefficients c of some G_j, of G_j - G_{j-1}
    = 1 + sum_k t_k G_{j+k}, or of part of that sum, all of them
    nonnegative, so its absolute value is at most (max_k |w_k|)^d times
    [x^d] G_j(x, ..., x) < 2^W, W the seeded solve's bound in r variables
    (``hypercat._coefficient_bits``), which bounds the layer's sum too:
    W_L = W + D weight_bits bits hold it.  An addition, a prefix sum and
    a held int count 1 + W_L / 8192, as in ``solve_work``; a product
    counts 3 + 4 b W_L / 8192, for the b = ceil(weight_bits / 30) digits
    of its weight; each window and each weight counts 16, for the list
    work around them, and a call 256.  Calibration, in process on one CPU of a
    2-core VM with Python 3.11, for r = 2-100, D = 0-300 and weights of
    1-64 bits (the fastest of five runs): a call took at most 0.49 of the
    estimate's time.  The estimate is polynomial in its arguments, so it
    answers at once for any int."""
    D = max_order
    P = D + r * D * (D - 1) // 2
    width = _coefficient_bits(r, r, D, geode=True) + D * weight_bits
    digits = -(-weight_bits // 30)
    plain = (r * P + P + 2 * (1 + D * r)) * (8192 + width)
    products = r * P * (3 * 8192 + 4 * digits * width)
    return 256 + 16 * r * (D + 1) + (plain + products) // 8192


def alternating_work(a: int, max_order: int) -> int:
    """Estimated work of ``eval_alternating(a, max_order)``: the line solve
    on its 2a weights of absolute value 1, priced by ``line_work``."""
    return line_work(2 * a, max_order, 1)


def general_work(a: int, c: Sequence[int], max_order: int) -> int:
    """Estimated work of ``eval_general(a, c, max_order)``: the line solve
    on its 2a weights, each at most max_i |c_i| in absolute value, priced
    by ``line_work``."""
    return line_work(2 * a, max_order, max(map(abs, c)).bit_length())


def geode_closed_shifted(a: int, m_a: int, m_a1: int) -> int:
    """Geode coefficient whose two nonzero slots are the adjacent variables
    a-1 and a (i.e. a-2 leading zero exponents), with exponents m_a, m_a1.

    At a = 2 this is the paper's two-variable formula, factor for factor:
    G[m1, m2] = (2m1+3m2+3)! / ((2m1+2m2+3)(m1+m2+1)(m1+2m2+2)! m1! m2!).
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


def eval_line(weights: Sequence[int], order: int) -> UnivariateSeries:
    """G[w_1 f, ..., w_r f] through f^order, for r = len(weights), solved
    on the line.

    The map t_k -> w_k f carries G_j = G_{j-1} + 1 + sum_k t_k G_{j+k}
    to g_j(f) = g_{j-1}(f) + 1 + f sum_k w_k g_{j+k}(f), g_j the image
    of G_j and g_0 = 0, so [g_j]_0 = j and, for d >= 1, [g_j]_d is the
    prefix sum over i <= j of sum_k w_k [g_{i+k}]_{d-1}: the recurrence of
    ``hypercat._solve_layers`` with one monomial per layer and each
    window weighted.  Layer d holds g_1..g_{J_d}, J_d = 1 + (order - d) r,
    as one list of ints, and [g_1]_d is the f^d coefficient.

    It is a loop of its own, not a mode of ``_solve_layers``: that loop
    adds each window unweighted into a dict of monomials, and a weight
    there would put a product into the inner loop of every table, while
    a line has a single monomial per layer and needs no dict.  Its work
    is quadratic in order and r (``line_work``), where the table's grows
    as C(r + order, r).
    """
    weights = tuple(weights)
    r = len(weights)
    if r < 1:
        raise ValueError("need at least one weight")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    top = 1 + order * r  # J_0
    powers = list(range(1, top + 1))  # [g_j]_0 = j for j = 1..J_0
    coeffs = [1]
    for _ in range(order):
        top -= r
        summed = [0] * top
        for k, w in enumerate(weights, start=1):
            summed = list(map(add, summed, [w * x for x in powers[k : k + top]]))
        powers = list(accumulate(summed))
        coeffs.append(powers[0])
    return UnivariateSeries(coeffs, order)


def general_weights(c: Sequence[int]) -> tuple[int, ...]:
    """Weight pattern (-c_a, c_1, -c_1, c_2, -c_2, ..., c_{a-1}, -c_{a-1}, c_a)."""
    a = len(c)
    weights = [-c[a - 1]]
    for i in range(a - 1):
        weights.extend((c[i], -c[i]))
    weights.append(c[a - 1])
    return tuple(weights)


def eval_general(a: int, c: Sequence[int], max_order: int) -> UnivariateSeries:
    """G[-c_a f, c_1 f, -c_1 f, ..., c_a f] in 2a variables, by the line
    solve; the f^n coefficient is (2a c_a - c_1 - ... - c_a)^n."""
    if a < 1:
        raise ValueError(f"need a >= 1, got {a}")
    c = tuple(c)
    if len(c) != a:
        raise ValueError(f"need {a} multipliers, got {len(c)}")
    return eval_line(general_weights(c), max_order)


def eval_alternating(a: int, max_order: int) -> UnivariateSeries:
    """G[-f, f, ..., -f, f] in 2a variables, by the line solve; the f^n
    coefficient is a^n.  It is ``eval_general`` at c = (1, ..., 1), whose
    weights alternate (-1, 1, ..., -1, 1) and whose base 2a - a is a."""
    return eval_general(a, (1,) * a, max_order)


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
    so it must hold for every nonzero m.  m is checked once, before any
    read: a wrong length, a negative entry or the zero vector raises
    ValueError, and a table truncated below total degree |m| - 1 raises
    OutOfRangeError.  Each m - e_k is then read from the table's terms
    directly, a missing one being 0.
    """
    m = tuple(m)
    if len(m) != table.nvars:
        raise ValueError(f"exponent vector {m} has length {len(m)}, expected {table.nvars}")
    if min(m) < 0:
        raise ValueError(f"negative exponent in {m}")
    if not any(m):
        raise ValueError("m must not be all zeros")
    if sum(m) - 1 > table.trunc:
        raise OutOfRangeError(
            f"need Geode table through degree {sum(m) - 1}, have {table.trunc}"
        )
    terms = table.series.terms
    total = 0
    for k, e in enumerate(m):
        if e:
            total += terms.get(m[:k] + (e - 1,) + m[k + 1 :], 0)
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
    """Estimated work of ``geode_closed_shifted(a, m_a, m_a1)`` and its case,
    priced by its largest factorial."""
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
