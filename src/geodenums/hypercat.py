"""The hyper-Catalan series, computed two independent ways.

S[t_1..t_r] is the unique formal series with constant term 1 satisfying

    S = 1 + t_1 S^2 + t_2 S^3 + ... + t_r S^{r+1}.

Its coefficients C[m_1..m_r] are the hyper-Catalan numbers; the r = 1 column
is the Catalan numbers and a single t_k gives a Fuss-Catalan family.

``solve_S`` obtains S from the defining equation, one homogeneous layer at
a time, and serves as the ground-truth oracle for the whole package; it
keeps no state between calls.  ``solve_work`` estimates its cost from
(r, max_degree) alone, so a request can be refused before it runs.
``hyper_catalan`` is the independent closed form.  Agreement of the two is
itself one of the verification suites.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Sequence

from .mpoly import (
    ExpVec,
    Layers,
    TruncatedSeries,
    _layer_product,
    _packing_shift,
    _unpack_terms,
    add,
    constant_series,
    mul,
    sub,
    times_variable,
)


def solve_S(r: int, max_degree: int) -> TruncatedSeries:
    """Series solution of S = 1 + sum_k t_k S^{k+1}, exact through max_degree.

    Solves one homogeneous layer at a time.  With S_0 = 1 and every power's
    layer 0 equal to 1, for d = 1..max_degree

        [S]_d   = sum_k t_k [S^{k+1}]_{d-1}
        [S^j]_d = sum_{i=0..d} [S^{j-1}]_i [S]_{d-i}     (j = 2..r+1, d < max_degree)

    Each right side reads only layers that are already final, so no pass is
    repeated and no convergence test is needed.  Layers are lists of
    (packed exponent, coefficient) pairs, kept for the whole solve and
    unpacked once into the returned series.  Every call builds a new series.
    """
    if r < 1:
        raise ValueError(f"need at least one variable, got r={r}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    shift = _packing_shift(max_degree)
    units = [1 << (k * shift) for k in range(r)]  # t_1..t_r, packed
    # powers[j - 1][d] is layer d of S^j, for j = 1..r+1.
    powers: list[Layers] = [[[(0, 1)]] for _ in range(r + 1)]
    s = powers[0]
    for d in range(1, max_degree + 1):
        layer: dict[int, int] = {}
        for unit, power in zip(units, powers[1:]):
            for p, c in power[d - 1]:
                key = p + unit
                layer[key] = layer.get(key, 0) + c
        s.append(list(layer.items()))
        if d < max_degree:
            for lower, power in zip(powers, powers[1:]):
                power.append(list(_layer_product(lower, s, d, {}).items()))
    terms: dict[ExpVec, int] = {}
    for pairs in s:
        terms.update(_unpack_terms(pairs, r, shift))
    return TruncatedSeries(r, max_degree, terms)


def solve_pairs(r: int, max_degree: int) -> int:
    """Coefficient pairs ``solve_S(r, max_degree)`` multiplies.  Every C[m]
    is positive, so layer d of each of the r powers S^2..S^{r+1} takes one
    pair per monomial of degree d in 2r variables, for 0 < d < max_degree."""
    return r * max(0, comb(2 * r + max_degree - 1, 2 * r) - 1)


def solve_work(r: int, max_degree: int) -> int:
    """Estimated cost of ``solve_S(r, max_degree)`` and of writing out its
    table, in units of one product of short coefficients.

    Each pair counts 1 + bits // 512, where bits = max_degree * (r + 1 +
    r.bit_length()) bounds the bit length of every C[m] solved (C[m] <=
    C(w, |m|) r^|m|, w <= (r + 1) |m|).  Each of the r C(r + max_degree, r)
    exponent entries counts 4: it is unpacked, validated and written once.
    The r packed t_1..t_r, up to r fields long, count r^2, which bounds r
    even at max_degree 0.  The estimate is at least max(r^2, max_degree)
    and 2^min(r, max_degree)."""
    bits = max_degree * (r + 1 + r.bit_length())
    unpack = r * comb(r + max_degree, r)
    return solve_pairs(r, max_degree) * (1 + bits // 512) + 4 * unpack + r * r


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
