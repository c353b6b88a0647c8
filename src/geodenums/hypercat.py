"""The hyper-Catalan series, computed two independent ways.

S[t_1..t_r] is the unique formal series with constant term 1 satisfying

    S = 1 + t_1 S^2 + t_2 S^3 + ... + t_r S^{r+1}.

Its coefficients C[m_1..m_r] are the hyper-Catalan numbers; the r = 1 column
is the Catalan numbers and a single t_k gives a Fuss-Catalan family.

``solve_S`` obtains S from the defining equation, one homogeneous layer at
a time, and serves as the ground-truth oracle for the whole package; it
keeps no state between calls.  It unpacks the packed layers of
``_solve_layers``, which ``geode._geode_layers`` divides and
``geodenums table`` writes as they are.
``functional_residual`` checks a series against the equation on packed
layers as well.  ``solve_work`` estimates its cost from
(r, max_degree) alone, so a request can be refused before it runs.
``hyper_catalan`` is the independent closed form.  Agreement of the two is
itself one of the verification suites.
"""

from __future__ import annotations

from itertools import chain
from math import comb, factorial
from typing import Sequence

from .mpoly import (
    Layers,
    TruncatedSeries,
    _layer_product,
    _pack_layers,
    _packing_shift,
    _unpack_terms,
)


def _lane_bytes(r: int, max_degree: int) -> int:
    """Bytes per lane in ``solve_S``: every coefficient of S^j, j <= r + 1,
    of total degree <= max_degree is below 2^(8 * _lane_bytes(r, max_degree)).

    Every coefficient is positive, so each is at most the sum of its layer,
    [x^d] S^j(x, ..., x).  S(x, ..., x) has nonnegative coefficients and
    constant term 1, so S^j <= S^{r+1} coefficientwise for j <= r + 1, and
    S(x, ..., x) = 1 + x sum_k S^{k+1} <= M coefficientwise, where
    M = 1 + r x M^{r+1} (induction on the degree).  By Lagrange inversion

        [x^d] M^{r+1} = r^d C((r+1)(d+1), d) / (d+1) < r^d 2^{(r+1)(d+1)},

    and r <= 2^{(r-1).bit_length()}, so for d <= D = max_degree the
    W = (r+1)(D+1) + D (r-1).bit_length() + 1 bits are enough.  W is
    rounded up to whole bytes.
    """
    bits = (r + 1) * (max_degree + 1) + max_degree * (r - 1).bit_length() + 1
    return (bits + 7) // 8


def solve_S(r: int, max_degree: int) -> TruncatedSeries:
    """Series solution of S = 1 + sum_k t_k S^{k+1}, exact through max_degree.

    The layers of ``_solve_layers``, unpacked once.  Every call builds a new
    series.
    """
    shift, layers = _solve_layers(r, max_degree)
    return TruncatedSeries(r, max_degree, _unpack_terms(chain.from_iterable(layers), r, shift))


def _solve_layers(r: int, max_degree: int) -> tuple[int, Layers]:
    """The packing shift and the packed layers 0..max_degree of S.

    Solves one homogeneous layer at a time.  With S_0 = 1 and every power's
    layer 0 equal to 1, for d = 1..max_degree

        [S]_d   = sum_k t_k [S^{k+1}]_{d-1}
        [S^j]_d = sum_{i=0..d} [S^{j-1}]_i [S]_{d-i}     (j = 2..r+1, d < max_degree)

    Each right side reads only layers that are already final, so no pass is
    repeated and no convergence test is needed.

    The powers S^1..S^r of a monomial are held as fixed-width lanes of one
    int, S^j in lane j - 1.  So one ``_layer_product`` of the packed layers
    0..d-1 with S gives, in lane j - 2 and for every power at once,

        Q_j = sum_{i<d} [S^{j-1}]_i [S]_{d-i}.

    The missing i = d term is [S^{j-1}]_d [S]_0 = [S^{j-1}]_d, so
    [S^j]_d = [S]_d + Q_2 + ... + Q_j, a running sum across the lanes.  It is
    taken on the whole int by log2(r + 1) shift-and-add steps, with [S]_d
    shifted in below Q_2; lane k of the result is then [S^{k+1}]_d, which
    layer d + 1 of S reads as the coefficient of t_k.  Every coefficient is
    positive and below 2^W (``_lane_bytes`` proves the bound), and every
    partial sum in a lane is at most the coefficient it sums to, so no lane
    ever carries into the next.

    Layers are lists of (packed exponent, coefficient) pairs, exponents
    packed in fields of ``shift`` bits; layer 0 is exactly [(0, 1)].
    """
    if r < 1:
        raise ValueError(f"need at least one variable, got r={r}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    shift = _packing_shift(max_degree)
    units = [1 << (k * shift) for k in range(r)]  # t_1..t_r, packed
    width = _lane_bytes(r, max_degree)
    bits = 8 * width
    size = (r + 1) * width  # lanes S^1..S^{r+1}
    whole = (1 << (8 * size)) - 1
    powers = (1 << (r * bits)) - 1  # lanes S^1..S^r
    steps = [bits << i for i in range(r.bit_length())]
    # Lane k of a word, S^{k+1}, is the coefficient of t_k in the next layer.
    reads = [(unit, cut, cut + width) for unit, cut in zip(units, range(width, size, width))]
    from_bytes = int.from_bytes
    s: Layers = [[(0, 1)]]
    # packed[d] is layer d of S^1..S^r, for d < max_degree.
    packed: Layers = []
    for d in range(max_degree):
        q = _layer_product(packed, s, d, {})
        layer = []
        following: dict[int, int] = {}
        get = following.get
        for key, c in s[d]:
            word = (q.get(key, 0) << bits) + c
            for step in steps:
                word += word << step
            word &= whole
            layer.append((key, word & powers))
            lanes = word.to_bytes(size, "little")
            for unit, start, end in reads:
                k = key + unit
                following[k] = get(k, 0) + from_bytes(lanes[start:end], "little")
        packed.append(layer)
        s.append(list(following.items()))
    return shift, s


def solve_pairs(r: int, max_degree: int) -> int:
    """Coefficient pairs ``solve_S(r, max_degree)`` multiplies.  Every C[m]
    is positive, so for 0 < d < max_degree the one product of layer d takes
    one pair per monomial of degree d in 2r variables, less the pairs with
    [S]_0, one per monomial of degree d in r variables."""
    return comb(2 * r + max_degree - 1, 2 * r) - comb(r + max_degree - 1, r)


def solve_work(r: int, max_degree: int) -> int:
    """Estimated cost of ``solve_S(r, max_degree)`` and of writing out its
    table, in units of one product of short coefficients.

    Each pair multiplies a packed int of r lanes of W = 8 * _lane_bytes(r,
    max_degree) bits by a coefficient of up to W bits and counts
    1 + r W (1 + W / 4096) / 512.  The W^2 part is the schoolbook product
    of the two lengths, which CPython uses below 70 digits (2100 bits) and
    which dominates when one variable runs to a high degree: without it,
    S at r = 1 through degree 1621 was admitted and took twice as long as
    the largest admitted request for r = 2..7.  Each of the C(r + max_degree
    - 1, r) monomials below max_degree has its r lanes read out once, each
    lane counting 8 + W // 16.  Each of the r C(r + max_degree, r) exponent
    entries counts 4: it is decoded, checked against its layer's degree
    and written once.  The r packed t_1..t_r, up to r fields long, count
    r^2, which bounds r even at max_degree 0.  The estimate is at least max(r^2, max_degree) and
    2^min(r, max_degree)."""
    lane = 8 * _lane_bytes(r, max_degree)
    pairs = solve_pairs(r, max_degree)
    reads = r * comb(r + max_degree - 1, r) * (8 + lane // 16)
    unpack = r * comb(r + max_degree, r)
    return pairs + pairs * r * lane * (4096 + lane) // (512 * 4096) + reads + 4 * unpack + r * r


def functional_residual(s: TruncatedSeries) -> TruncatedSeries:
    """1 - S + sum_k t_k S^{k+1}; the zero series iff S solves the equation
    through its truncation order.

    S is packed once; t_k S^{k+1} reads S^{k+1} only through degree
    trunc - 1, so the powers S^2..S^{r+1} are chained by ``_layer_product``
    that far, and every term is summed into one packed dict.
    """
    r, top = s.nvars, s.trunc
    shift = _packing_shift(top)
    layers = _pack_layers(s.terms, r, top, shift)
    residual = {0: 1}
    get = residual.get
    for key, c in chain.from_iterable(layers):
        residual[key] = get(key, 0) - c
    power = layers
    for k in range(r):
        unit = 1 << (k * shift)  # t_{k+1}
        power = [list(_layer_product(power, layers, d, {}).items()) for d in range(top)]
        for key, c in chain.from_iterable(power):
            residual[key + unit] = get(key + unit, 0) + c
    return TruncatedSeries(r, top, _unpack_terms(residual.items(), r, shift))


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
