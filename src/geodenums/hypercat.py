"""The hyper-Catalan series, computed two independent ways.

S[t_1..t_r] is the unique formal series with constant term 1 satisfying

    S = 1 + t_1 S^2 + t_2 S^3 + ... + t_r S^{r+1}.

Its coefficients C[m_1..m_r] are the hyper-Catalan numbers; the r = 1 column
is the Catalan numbers and a single t_k gives a Fuss-Catalan family.

``solve_S`` obtains S from the defining equation, one homogeneous layer at
a time, and serves as the ground-truth oracle for the whole package; it
keeps no state between calls.  Multiplying the equation by S^{j-1} gives
S^j = S^{j-1} + sum_k t_k S^{j+k}, so each layer of every power it needs
is a sum of layers one degree lower: the solve forms no series product.
A monomial's powers are a list of ints, or, from two slots up to two per
degree, the lanes of one int as wide as a proven bound on every
coefficient, so a window is one shift and mask, a sum of windows one
addition and the prefix sums a few shift-adds (``_lane_loop``).
It unpacks the packed layers of ``_solve_layers``, which
``geodenums table`` writes as they are.  Seeded with j in place of 1 at
layer 0, the same recurrence gives G_j = (S^j - 1) / (t_1 + ... + t_r),
so ``_solve_layers(r, D, geode=True)`` solves the Geode series G = G_1
through D (``geode.geode_series``) with no division.
The recurrence commutes with every ring map that fixes the constants: the
image of S^j under a map phi is phi(S)^j, so the images obey S^j =
S^{j-1} + sum_k phi(t_k) S^{j+k} with the same seed.  Two maps are
solved directly, so a check that reads only their image never builds
the whole table: t_k -> 0 for each slot k outside a kept set T, the
support solve ``_solve_layers(r, D, support=T)``, which pushes windows
for the slots of T alone, and t_k -> w_k f, the line solve
``geode.eval_line``, which holds one list of powers per degree.
``functional_residual`` checks a series against the equation itself, with
powers chained through ``mpoly._layer_product``, an algorithm the solve
does not run.  ``solve_work`` estimates the cost of either solve, and
``residual_work`` the residual's, from (r, max_degree) alone, so a
request can be refused before it runs.
``hyper_catalan`` is the independent closed form.  Agreement of the two is
itself one of the verification suites.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from itertools import accumulate, chain
from math import comb, factorial
from operator import add
from typing import Sequence

from .mpoly import (
    Layers,
    TruncatedSeries,
    _layer_product,
    _pack_layers,
    _packing_shift,
    _unpack_terms,
)


def solve_S(r: int, max_degree: int) -> TruncatedSeries:
    """Series solution of S = 1 + sum_k t_k S^{k+1}, exact through max_degree.

    The layers of ``_solve_layers``, solved by the power recurrence
    S^j = S^{j-1} + sum_k t_k S^{j+k} that the equation gives times
    S^{j-1}, through J_d = 1 + (max_degree - d) r powers at layer d, and
    unpacked once (``_solve_series``).  Every call builds a new series.
    """
    return _solve_series(r, max_degree)


def _solve_series(
    r: int, max_degree: int, *, geode: bool = False, support: Sequence[int] | None = None
) -> TruncatedSeries:
    """The layers of ``_solve_layers(r, max_degree, geode=geode,
    support=support)``, unpacked once into a series through max_degree in
    the variables of the support, r for the full table: the one read-out of
    ``solve_S``, ``geode.geode_series`` and ``geode.geode_support``.  Every
    call builds a new series."""
    shift, layers = _solve_layers(r, max_degree, geode=geode, support=support)
    n = r if support is None else len(support)
    return TruncatedSeries(n, max_degree, _unpack_terms(chain.from_iterable(layers), n, shift))


def _solve_layers(
    r: int, max_degree: int, *, geode: bool = False, support: Sequence[int] | None = None
) -> tuple[int, Layers]:
    """The packing shift and the packed layers 0..max_degree of S, or of
    G = (S - 1) / (t_1 + ... + t_r) if `geode`; with `support`, an
    increasing sequence T of slots in 1..r, of their images under t_k -> 0
    for every k not in T, in the variables t_k, k in T, the i-th slot of T
    packed in field i.  The full table is T = 1..r.

    Multiplying the defining equation by S^{j-1} gives, for every j >= 1,

        S^j = S^{j-1} + sum_k t_k S^{j+k},

    so, writing [F]_d for the homogeneous layer d of F, every power's layer
    0 is 1, [S^0]_d = 0 for d >= 1, and

        [S^j]_d = [S^{j-1}]_d + sum_k t_k [S^{j+k}]_{d-1}.

    With a support T, setting t_k = 0 for k not in T is a ring map that
    fixes 1, so it maps each power of S to the same power of the image and
    this recurrence to the one with the sum over k in T alone: the loop
    pushes one window per slot of T, and nothing outside T is ever formed.
    Write M = max T (M = r for the full table).  Layer d of S^j reads
    layer d - 1 of powers up to j + M only.  Layer D = max_degree needs
    S^1 alone, so layer d needs the powers j <= J_d = 1 + (D - d) M, and
    layer d - 1 holds exactly the J_d + M = J_{d-1} that it reads.  No
    series product is formed: each monomial of layer d - 1 holds its
    coefficients in S^1..S^{J_{d-1}} as a list v of exact ints,
    v[0] for S^1, and pushes the window v[k : k + J_d], its S^{j+k} for
    j = 1..J_d, into its monomial times t_k, where the first window is
    copied and later ones are added entry by entry.  As [S^0]_d = 0, the
    prefix sums of the windows summed at a monomial are its S^1..S^{J_d},
    and entry 0, S^1, is layer d of S.  Each right side reads only layers
    that are already final, so no pass is repeated and no convergence test
    is needed; the last layer, J_D = 1, adds up the S^{k+1} entries alone.

    G_j = (S^j - 1) / (t_1 + ... + t_r), with G_1 = G and G_0 = 0, obeys
    the same recurrence: taking 1 from both sides of the one above and
    dividing by t_1 + ... + t_r gives G_j = G_{j-1} + 1 + sum_k t_k
    G_{j+k}, which differs only at layer 0, [G_j]_0 = j.  It is an
    identity of series, so the ring map of a support carries it over too.
    So with `geode` layer 0 of the powers is seeded 1, 2, ..., J_0 in place
    of 1, ..., 1, and the same loop returns the layers of G through
    max_degree, with no division and no solve one degree up.

    Two loops run this solve and return equal layers in the same order.
    The list loop (``_list_loop``) holds v as above.  The lane loop
    (``_lane_loop``) holds v as one int whose lane i, its bits iW to
    (i + 1) W - 1, is S^{i+1}: the window is (v >> kW) & (2^{J_d W} - 1),
    adding a window is one int addition, and the prefix sums are
    ceil(log2 J_d) shift-adds w += w << s, for s = W, 2W, 4W, ..., and one
    mask (``_lane_sums``).  With W = ``_lane_bits`` no lane carries into
    the next.  Every coefficient of a power the solve reads or forms at
    layer d is positive and at most the layer's sum [x^d] U^j, where U is
    the image of S under t_k -> x, and [x^d] U^j <= [x^d] V^j for V = 1 +
    n x V^{M+1} (the proof is in ``solve_work``).  By Lagrange inversion
    [x^d] V^j = j C((M+1) d + j, d) n^d / ((M+1) d + j) <= C(1 + DM + d, d)
    n^d for j <= J_d, and that is largest at d = D, C(1 + D (M+1), D) n^D
    < 2^W.  A window, a sum of windows and each lane below J_d during the
    shift-adds is a sum of some of the nonnegative terms that make up one
    of these coefficients, so it is at most that coefficient.  A lane at
    or above J_d may overflow, but a carry only moves up, into lanes the
    mask drops, and the solve subtracts nothing, so nothing borrows.
    Seeded for G, every int is a sum of seed lanes with nonnegative
    multiplicities that do not depend on the seed, so it is at most J_0
    times the int the S solve holds in its place, and W is J_0.bit_length()
    bits wider.

    Lanes pay where there are several slots and several degrees per slot,
    so the lane loop runs for 2 <= n <= 2D and W <= _MAX_LANE_BITS = 128,
    n = |T|, and the list loop otherwise.  In process on one CPU of a
    2-core VM with Python 3.11, best of 14, lane loop time over list loop
    time: 0.53-0.80 on r = 3..6 at D = 6..12, 0.79-0.96 at r = 2 and
    0.59-0.90 on supports of 2-4 slots; but 1.1-3.1 at n = 1, for D = 3 to
    100, 1.1-1.7 for r = 10 to 100 at D <= 3 and at r = 12, D = 4, and
    1.1-2.4 at r = 2, D >= 40, where W >= 148, while r = 3, D = 30, W =
    142, took 0.75.

    The solve allocates an int or a list per window and per monomial and
    makes no reference cycles, so the cyclic garbage collector is off
    while it runs and left as the caller had it, on every path.

    Layers are lists of (packed exponent, coefficient) pairs, exponents
    packed in fields of ``shift`` bits; layer 0 is exactly [(0, 1)].

    Each layer lists every monomial of its degree once, with a positive
    coefficient, in descending lexicographic order of exponent tuples, and
    ``geodenums table`` labels its rows from that order
    (``cli._write_table``).  By induction on the degree: take a target m.
    The lexicographically largest of its sources is m - e_k, where k is
    the last nonzero index of m.  The loop visits the sources in
    descending lexicographic order, with k ascending for each, and a dict
    keeps the order of first insertion, so m is first inserted at (the
    rank of that source, k).  Compared at their first differing index, two
    targets are in this order exactly when they are in descending
    lexicographic order.  The dict of the last layer is filled by the same
    loop.  With a support the same holds in the fields of T, whose slots
    the loop visits in ascending order too.
    """
    if r < 1:
        raise ValueError(f"need at least one variable, got r={r}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    slots = range(1, r + 1) if support is None else tuple(support)
    if not slots or any(not 0 < k < after for k, after in zip(slots, (*slots[1:], r + 1))):
        raise ValueError(f"support must be increasing slots in 1..{r}, got {support}")
    shift = _packing_shift(max_degree)
    # t_k, packed in the field of its place in T, and k: v[k] is S^{k+1} in
    # a monomial's list v of S^1, S^2, ...
    windows = [(1 << (i * shift), k) for i, k in enumerate(slots)]
    reach = slots[-1]  # M = max T
    # the measured crossover: lanes pay from two slots up to two per degree
    lanes = 2 <= len(slots) <= 2 * max_degree
    width = _lane_bits(len(slots), reach, max_degree, geode) if lanes else 0
    with _collector_off():
        if lanes and width <= _MAX_LANE_BITS:
            return shift, _lane_loop(windows, reach, max_degree, geode, width)
        return shift, _list_loop(windows, reach, max_degree, geode)


class _collector_off:
    """The cyclic garbage collector off inside a ``with`` block, and left
    as the caller had it on every path: for work that makes many objects
    and no reference cycles, where each collection would walk every object
    made so far.  A class, not a generator: a generator's exit allocates
    once the collector is back on, which would run the collection the
    block put off before the block's caller resumes."""

    __slots__ = ("collecting",)

    def __enter__(self) -> None:
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self.collecting:
            gc.enable()


# The widest lanes ``_solve_layers`` packs; past it the list loop wins.
_MAX_LANE_BITS = 128


def _list_loop(
    windows: Sequence[tuple[int, int]], reach: int, max_degree: int, geode: bool
) -> Layers:
    """The layers of ``_solve_layers`` for the (packed t_k, k) `windows`
    of T, M = `reach`, each monomial's powers a list of exact ints."""
    top = 1 + max_degree * reach  # J_0
    powers = [(0, list(range(1, top + 1)) if geode else [1] * top)]  # layer 0 of the powers
    s: Layers = [[(0, 1)]]
    for _ in range(1, max_degree):
        top -= reach
        following: dict[int, list[int]] = {}
        get = following.get
        for key, v in powers:
            for unit, k in windows:
                target = key + unit
                window = v[k : k + top]
                held = get(target)
                following[target] = window if held is None else list(map(add, held, window))
        powers = [(key, list(accumulate(w))) for key, w in following.items()]
        s.append([(key, v[0]) for key, v in powers])
    if max_degree:
        last: dict[int, int] = {}
        get = last.get
        for key, v in powers:
            for unit, k in windows:
                target = key + unit
                last[target] = add(get(target, 0), v[k])
        s.append(list(last.items()))
    return s


def _lane_loop(
    windows: Sequence[tuple[int, int]], reach: int, max_degree: int, geode: bool, width: int
) -> Layers:
    """The layers of ``_list_loop``, each monomial's powers S^1..S^J held
    as `width`-bit lanes of one int, lane i for S^{i+1}; `width` must be
    at least ``_lane_bits``."""
    lane = (1 << width) - 1
    top = 1 + max_degree * reach  # J_0
    ones = {0: ((1 << top * width) - 1) // lane}  # 1 in each of J_0 lanes
    powers = _lane_sums(ones, width, top) if geode else list(ones.items())
    s: Layers = [[(0, 1)]]
    shifted = [(unit, k * width) for unit, k in windows]
    for _ in range(1, max_degree):
        top -= reach
        mask = (1 << top * width) - 1
        following: dict[int, int] = {}
        get = following.get
        for key, v in powers:
            for unit, k in shifted:
                target = key + unit
                window = v >> k & mask
                held = get(target)
                following[target] = window if held is None else add(held, window)
        powers = _lane_sums(following, width, top)
        s.append([(key, v & lane) for key, v in powers])
    if max_degree:
        last: dict[int, int] = {}
        get = last.get
        for key, v in powers:
            for unit, k in shifted:
                target = key + unit
                last[target] = add(get(target, 0), v >> k & lane)
        s.append(list(last.items()))
    return s


def _lane_sums(sums: dict[int, int], width: int, count: int) -> list[tuple[int, int]]:
    """(key, w') for each key and int w of `sums`, lane i of w' the sum of
    lanes 0..i of w, for the `count` lanes of `width` bits w holds: one
    shift-add per power of two below count, then one mask."""
    end = count * width
    mask = (1 << end) - 1
    spans = [width << i for i in range((count - 1).bit_length())]
    prefixed = []
    for key, w in sums.items():
        for span in spans:
            w += w << span
        prefixed.append((key, w & mask))
    return prefixed


def _lane_bits(size: int, reach: int, max_degree: int, geode: bool = False) -> int:
    """The lane width of ``_lane_loop`` through max_degree, seeded for G if
    `geode`, on a support of `size` slots, the largest `reach`:
    bit_length(C(1 + D (M + 1), D) n^D), plus J_0.bit_length() if
    `geode`; the proof is in ``_solve_layers``."""
    width = (comb(1 + max_degree * (reach + 1), max_degree) * size**max_degree).bit_length()
    return width + (1 + max_degree * reach).bit_length() if geode else width


def _solve_counts(size: int, reach: int, max_degree: int) -> tuple[int, int, int, int]:
    """(windows, window additions, prefix sums, peak) of ``_solve_layers``
    through max_degree on a support T of `size` = |T| slots, the largest
    `reach` = max T (size = reach = r for the full table): the windows it
    pushes, the entries it adds into windows already at their monomial
    (every entry of the last layer's, which add into 0), the entries its
    prefix sums run over, and the most ints one layer of powers holds,
    max_{d<D} N_d J_d.

    With D = max_degree and n = size, every monomial in the n variables
    of T has a positive coefficient, so layer d holds N_d = C(n + d - 1, n
    - 1) monomials; with M = reach, J_d = 1 + (D - d) M.  Layer d for d =
    1..D takes one window of J_d entries from each of the N_{d-1}
    monomials of layer d - 1 and each slot of T.  With sum_{e<D} N_e =
    C(n + D - 1, n) and sum_{e<D} N_e (D - 1 - e) = C(n + D - 1, n + 1)
    (the hockey-stick identity, twice), that is n C(n + D - 1, n) windows
    of n (C(n + D - 1, n) + M C(n + D - 1, n + 1)) entries.  For d < D the
    first window into a monomial is copied, not added, and its J_d
    entries are the ones the prefix sums run over, sum_{0<d<D} N_d J_d =
    C(n + D - 1, n) - 1 + M (C(n + D, n + 1) - D), since sum_{d<D} N_d (D
    - d) = C(n + D, n + 1); every other entry is a window addition.  N_d
    and J_d are log-concave in d, so their product is, and the peak is
    found by bisection.
    """
    D, n, M = max_degree, size, reach
    if not D:
        return 0, 0, 0, 0
    below = comb(n + D - 1, n)
    entries = n * (below + M * comb(n + D - 1, n + 1))
    prefix = below - 1 + M * (comb(n + D, n + 1) - D)

    def held(d: int) -> int:
        return comb(n + d - 1, n - 1) * (1 + (D - d) * M)

    peak = held(bisect_left(range(D - 1), True, key=lambda d: held(d + 1) <= held(d)))
    return n * below, entries - prefix, prefix, peak


def _coefficient_bits(size: int, reach: int, max_degree: int, geode: bool = False) -> int:
    """W, a bound in bits on every coefficient ``_solve_layers`` through
    max_degree, seeded for G if `geode`, holds on a support of `size`
    slots, the largest `reach` (both r for the full table), that is of
    every power it reads, and on the sum of each power's layer; the proof
    is in ``solve_work``."""
    width = 1 + max_degree * (reach + 1 + (size - 1).bit_length())
    return width + (1 + max_degree * reach).bit_length() if geode else width


def solve_work(
    r: int, max_degree: int, *, geode: bool = False, support: Sequence[int] | None = None
) -> int:
    """Estimated cost of ``solve_S(r, max_degree)`` and of writing out its
    table, in units of one addition of short coefficients; with `geode`,
    of the seeded solve ``_solve_layers(r, max_degree, geode=True)`` that
    gives the G table, and of writing it out; with `support` T, of the
    support solve ``_solve_layers(r, max_degree, geode=geode,
    support=T)`` and of its table, which depend on n = |T| and M = max T
    alone, not on r (n = M = r for the full table).

    From the counts of ``_solve_counts``, with D = max_degree, which the
    seed does not change.  They are the list loop's (``_solve_layers``).
    The lane loop adds and prefix-sums the same entries as lanes no wider
    than W below, so they bound the bits it holds, and it runs only where
    it measured faster, so they bound its time:

    - each window counts 16, the list and dict work around its entries;
    - each window entry, added or copied, and each prefix sum is one
      addition;
    - at most three layers of powers are alive at once (those read, the
      windows summed and their prefix sums), so the ints held at once,
      three times the peak, count one each as well, and an admitted solve
      cannot hold more power coefficients than its estimate;
    - each of these counts W / 8192 more for its length: every
      coefficient is positive, so it is at most its layer's sum, [x^d]
      S^j(x, ..., x), S here the image of the support.  That image U
      solves U = 1 + x sum_{k in T} U^{k+1}, and U^{k+1} <= U^{M+1}
      coefficientwise for k <= M, since U^{M-k} has constant term 1 and
      no negative coefficient, so by induction on the degree U <= V
      coefficientwise, where V = 1 + n x V^{M+1}.  By Lagrange inversion
      [x^d] V^j = j C((M+1) d + j, d) n^d / ((M+1) d + j) < 2^{(M+1) d +
      j} n^d, and j <= J_d gives (M+1) d + j <= 1 + M D + d, while n <=
      2^{(n-1).bit_length()}, so W = 1 + D (M + 1 + (n-1).bit_length())
      bits hold every coefficient and every layer's sum.  The seeded
      solve adds J_0.bit_length() bits, J_0 = 1 + D M: each int it holds
      is a sum of layer-0 entries with nonnegative integer multiplicities
      that do not depend on the seed, since the solve only adds, so
      seeding j <= J_0 in place of 1 makes each at most J_0 times the
      power of S in its place, and J_0 < 2^{J_0.bit_length()}.  Additions
      are linear in the length, and most coefficients are far shorter
      than W, so the part matters only with few variables at a high
      degree;
    - each of the n C(n + D, n) exponent entries of the table counts 4:
      its text is generated, its layer's key checked against the
      generated one, and it is formatted and written once;
    - the n packed units of T, up to n fields long, count n^2, which
      bounds n even at max_degree 0.

    The estimate is at least max(n^2, max_degree) (every layer takes a
    window) and 2^min(n, max_degree) (C(n + D, n) >= 2^min(n, D)), so once
    max_degree or 2^min(n, max_degree) reaches 2^64 it returns 2^64, a
    bound below it, and no binomial runs with two huge arguments: it
    answers at once for any int, M entering as a factor only."""
    size, reach = (r, r) if support is None else (len(support), max(support))
    if max_degree >= 1 << 64 or min(size, max_degree) >= 64:
        return 1 << 64
    windows, additions, prefix, peak = _solve_counts(size, reach, max_degree)
    width = _coefficient_bits(size, reach, max_degree, geode)
    ints = additions + 2 * prefix + 3 * peak  # the copies are as many as the prefix sums
    entries = 4 * size * comb(size + max_degree, size)
    return 16 * windows + ints * (8192 + width) // 8192 + entries + size * size


def residual_work(r: int, max_degree: int) -> int:
    """Estimated cost of ``functional_residual`` of an S table in r
    variables through max_degree, beyond the solve, in the units of
    ``solve_work``: its products and its packing.

    Every coefficient of S is positive, so each layer d holds all N_d =
    C(r + d - 1, r - 1) monomials.  The residual forms r products, each
    power S^k times S through degree D - 1 (D = max_degree), and a product
    layer d pairs each term of degree i with each of degree d - i: the
    pairs are the monomials of degree d in 2r variables, C(2r + d - 1,
    2r - 1), so summed over d < D each product has C(2r + D - 1, 2r) and
    the residual r C(2r + D - 1, 2r) pairs, none at D = 0.

    A pair counts 8, the dict and tuple work around it (about 300 ns on
    one CPU of a 2-core VM with Python 3.11, where a unit is 35-90 ns),
    plus W^2 / 2^18 for the length of its two factors: the coefficients
    of S^k, k <= r + 1, through degree D - 1 are below 2^W for the W of
    ``solve_work`` (``_coefficient_bits``), and CPython multiplies ints of n 30-bit digits with
    about n^2 digit products below its Karatsuba cutoff of 70 digits.  At
    r = 1 and degree 800 or 1200 a pair takes 1.0 or 1.6 us there.

    The residual also packs each of the r C(r + D, r) exponent entries of
    its table and unpacks each of the sum's, which dominates wide shallow
    tables (at r = 100, degree 2, 1.0e6 entries and 2.0e4 pairs); each
    entry counts 1 (about 55 ns there).

    The estimate is at least r and, from degree 1 on, 8 max(r, max_degree)
    and 2^min(r, max_degree) (C(2r + D - 1, D - 1) >= 2^min(2r, D - 1)), so
    once min(r, max_degree) reaches 64 it returns 2^64, a bound below it:
    it answers at once for any int."""
    if min(r, max_degree) >= 64:
        return 1 << 64
    pairs = r * comb(2 * r + max_degree - 1, 2 * r)
    width = _coefficient_bits(r, r, max_degree)
    return (pairs * (8 * 2**18 + width * width) >> 18) + 2 * r * comb(r + max_degree, r)


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
    return _exact_div(factorial(w), den)


def _exact_div(num: int, den: int) -> int:
    """num / den, which every closed form divides exactly: a remainder
    raises ArithmeticError."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"expected {num} divisible by {den}")
    return q
