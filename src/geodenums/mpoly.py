"""Sparse truncated multivariate series with exact integer coefficients.

A series in r variables t_1..t_r is a dictionary mapping exponent tuples to
nonzero Python integers, together with a truncation order: every monomial of
total degree above ``trunc`` is discarded by all operations.

  ExpVec = tuple[int, ...]     entry i (0-based) is the exponent of t_{i+1}
  terms  = dict[ExpVec, int]   canonical form: no zero coefficients stored

All coefficients are arbitrary-precision integers, never floats; a single
rounding error would void every identity check built on top of this module.
Truncation is by total degree, which matches the homogeneous-layer grading in
which the factorization S - 1 = (t_1 + ... + t_r) * G lives.

The package computes on packed layers: lists of (packed exponent,
coefficient) pairs, one list per total degree.  Every series product runs
through one kernel, ``_layer_product``: one homogeneous layer of a product
of two such series.  The oracle solve forms no product (``hypercat``
builds each power of S from sums of layers one degree lower), so the
products that check it, ``hypercat.functional_residual`` and the
factorization check, run an algorithm the solve does not.

The algebra on ``TruncatedSeries`` values, ``mul``, ``sub``, ``s1_series``,
``constant_series`` and ``divide_exact_by_s1``, is the reference form in
which the tests and the benchmark's traced replay state and time the
series algebra; no package code path calls it.  ``mul`` packs its
operands with ``_pack_layers`` and runs ``_layer_product``.
``divide_exact_by_s1`` is the plain reference division, solved term by
term on tuple keys; the Geode series needs none, since
``hypercat._solve_layers(r, D, geode=True)`` solves G directly by the
seeded power recurrence.  Whether a quotient times t_1 + ... + t_r gives
back its dividend is decided in one place, ``_s1_multiple_mismatch``,
which the division's own check and ``geode.GeodeTable.factorization_holds``
both call.

``geodenums table`` writes S and G from packed layers as well, and
decodes no key: the solver lists each layer's monomials in a fixed
lexicographic order, and ``_layer_labels`` generates the keys and
exponent texts of every monomial of a degree in that order, so the
writer compares a layer's keys with the generated ones, which stands in
for the check that ``TruncatedSeries`` makes on construction, and labels
its rows with the texts.  ``_misplaced`` decodes a layer only to name
what differs.  ``series_to_dict`` renders a series as that table's JSON
does, and the tests compare the two.

Values are immutable after construction and all operations are pure, so
series may be shared freely across threads.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement
from operator import sub as _difference  # this module defines its own sub
from typing import Iterable, Iterator, Mapping, Sequence

ExpVec = tuple[int, ...]
# A series by homogeneous layers: item i lists its (packed exponent,
# coefficient) pairs of total degree i.
Layers = list[list[tuple[int, int]]]


class VariableCountMismatchError(ValueError):
    """Operands live in different ambient variable counts."""


class NonzeroConstantError(ValueError):
    """Division by t_1 + ... + t_r requires a vanishing constant term."""


class NotDivisibleError(ArithmeticError):
    """The dividend is not an exact multiple of t_1 + ... + t_r."""


class OutOfRangeError(LookupError):
    """Coefficient query beyond the truncation order (not a true zero)."""


class _Frozen:
    """An immutable value in ``__slots__``: the constructor stores each slot
    once through ``_freeze``; equality, hash and repr go by the slots in
    order, and pickling and copying go through the constructor."""

    __slots__ = ()

    def _freeze(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TruncatedSeries(_Frozen):
    """Multivariate series truncated at a total degree.

    ``terms`` is canonicalized on construction: zero coefficients are
    dropped, keys are validated against ``nvars`` and ``trunc``.  Treat
    instances (including the ``terms`` dict) as immutable.
    """

    __slots__ = ("nvars", "trunc", "terms")

    def __init__(self, nvars: int, trunc: int, terms: Mapping[ExpVec, int]) -> None:
        if nvars < 1:
            raise ValueError(f"need at least one variable, got nvars={nvars}")
        if trunc < 0:
            raise ValueError(f"truncation order must be >= 0, got {trunc}")
        clean: dict[ExpVec, int] = {}
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != nvars:
                raise VariableCountMismatchError(
                    f"exponent vector {m} has length {len(m)}, expected {nvars}"
                )
            if min(m) < 0:
                raise ValueError(f"negative exponent in {m}")
            if sum(m) > trunc:
                raise ValueError(
                    f"term {m} has total degree {sum(m)} above truncation {trunc}"
                )
            if c:
                clean[m] = c
        self._freeze(nvars, trunc, clean)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def is_zero(self) -> bool:
        return not self.terms


class UnivariateSeries(_Frozen):
    """Coefficient list in a single variable f; index n holds the f^n term."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: Iterable[int], trunc: int) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != trunc + 1:
            raise ValueError(
                f"need trunc+1 = {trunc + 1} coefficients, got {len(coeffs)}"
            )
        self._freeze(coeffs, trunc)

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.trunc:
            raise OutOfRangeError(f"index {n} outside [0, {self.trunc}]")
        return self.coeffs[n]


def iter_exponents(nvars: int, total: int) -> Iterator[ExpVec]:
    """Yield every exponent vector of the given total degree, in ascending
    lexicographic order."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if total < 0:
        return
    # Stars and bars: the partial sums m_1, m_1 + m_2, ... cut 0..total at
    # nvars - 1 nondecreasing points, and cut points in lexicographic order
    # give the vectors in lexicographic order.
    for cuts in combinations_with_replacement(range(total + 1), nvars - 1):
        yield tuple(map(_difference, (*cuts, total), (0, *cuts)))


def constant_series(nvars: int, trunc: int, value: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, trunc, {(0,) * nvars: value})


def s1_series(nvars: int, trunc: int) -> TruncatedSeries:
    """The linear form t_1 + t_2 + ... + t_r."""
    terms: dict[ExpVec, int] = {}
    for k in range(nvars):
        exps = [0] * nvars
        exps[k] = 1
        terms[tuple(exps)] = 1
    return TruncatedSeries(nvars, trunc, terms)


def _require_same_nvars(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.nvars != b.nvars:
        raise VariableCountMismatchError(
            f"operands have {a.nvars} and {b.nvars} variables"
        )


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise difference, truncated at min(a.trunc, b.trunc)."""
    _require_same_nvars(a, b)
    trunc = min(a.trunc, b.trunc)
    out: dict[ExpVec, int] = {m: c for m, c in a.terms.items() if sum(m) <= trunc}
    for m, c in b.terms.items():
        if sum(m) <= trunc:
            out[m] = out.get(m, 0) - c
    return TruncatedSeries(a.nvars, trunc, out)


def _packing_shift(trunc: int) -> int:
    """Bits per variable when an exponent tuple of total degree <= trunc is
    packed into one int.  Sums of packed keys never overflow a field as
    long as the summed monomial still has total degree <= trunc."""
    return max(1, trunc.bit_length())


def _pack_layers(
    terms: Mapping[ExpVec, int], nvars: int, trunc: int, shift: int
) -> Layers:
    """A term dict as packed layers, up to its top nonzero layer of total
    degree <= trunc; terms above trunc are dropped."""
    offsets = [i * shift for i in range(nvars)]
    layers: Layers = []
    for m, c in terms.items():
        d = sum(m)
        if d <= trunc:
            packed = 0
            for e, o in zip(m, offsets):
                packed |= e << o
            while len(layers) <= d:
                layers.append([])
            layers[d].append((packed, c))
    return layers


def _unpack_terms(
    packed_terms: Iterable[tuple[int, int]], nvars: int, shift: int
) -> dict[ExpVec, int]:
    """Packed (exponent, coefficient) pairs to a term dict, dropping zero coefficients."""
    mask = (1 << shift) - 1
    offsets = [i * shift for i in range(nvars)]
    return {
        tuple([(packed >> o) & mask for o in offsets]): c
        for packed, c in packed_terms
        if c
    }


def _layer_labels(
    nvars: int, shift: int, top: int, sep: str
) -> Iterator[tuple[list[int], list[str]]]:
    """For each degree d = 0..top in turn, the packed keys and the exponent
    texts of all C(nvars + d - 1, d) monomials of degree d, in ascending
    lexicographic order; a text is the monomial's exponents joined by
    `sep`.  Each degree is built when it is asked for, so a caller that
    stops early builds no more, and what the generator keeps to build the
    next degree from is freed before it yields the top one.

    A monomial of degree d > 0 in the last m variables is k zeros, then
    a >= 1, then a monomial of degree d - a in the last m - 1 - k
    variables (with k = m - 1, a is d and nothing follows), and ordering
    by k descending, then a ascending, then that tail, is lexicographic
    order.  So each (m, d) is one flat comprehension over the heads
    (k, a), whose texts ``heads[k][a]`` and tails of lower degree are
    built already.  Tails are built only below the top degree, so the
    labels of a wide, shallow table cost about as much as its top layer's
    text; splitting off the first variable instead builds every degree in
    every number of variables, about ten times as much at (100, 2).
    """
    yield [0], [sep.join(["0"] * nvars)]
    if not top:
        return
    last = (nvars - 1) * shift  # t_r's field
    # zeros[m]: the text of m zero exponents, which tails[m][0] shares
    zeros = [sep.join(["0"] * m) for m in range(nvars)]
    # tails[m][e]: keys and texts of degree e in the last m variables
    tails = [[([0], [z])] for z in zeros]
    # heads[k][a], a >= 1: the text of k zero exponents and a, each followed by sep
    heads: list[list[str]] = [[""] for _ in range(nvars - 1)]

    def level(m: int, d: int) -> tuple[list[int], list[str]]:
        if m == 1:
            return [d << last], [str(d)]
        first = (nvars - m) * shift
        parts = [(d << last, f"{zeros[m - 1]}{sep}{d}", tails[0][0])]
        parts += [
            (a << (first + k * shift), heads[k][a], tails[m - 1 - k][d - a])
            for k in range(m - 2, -1, -1)
            for a in range(1, d + 1)
        ]
        if d == top:
            # nothing reads them again: freed before the caller formats the top layer
            zeros.clear()
            heads.clear()
            tails.clear()
        return (
            [b + key for b, _, (keys, _) in parts for key in keys],
            [h + text for _, h, (_, texts) in parts for text in texts],
        )

    for d in range(1, top + 1):
        for z, h in zip(zeros, heads):
            h.append(f"{z}{sep}{d}{sep}" if z else f"{d}{sep}")
        yield level(nvars, d)
        if d < top:
            for m in range(1, nvars):
                tails[m].append(level(m, d))


def _misplaced(
    layer: Sequence[tuple[int, int]], keys: Sequence[int], nvars: int, shift: int, degree: int
) -> ValueError:
    """The error for a packed layer, in ascending order, whose keys are not
    `keys`, all monomials of `degree` in ascending lexicographic order: a
    term of another total degree, as from a field that overflowed, or else
    the first monomial missing, repeated or out of order."""
    mask = (1 << shift) - 1
    offsets = [i * shift for i in range(nvars)]

    def exps(key: int) -> ExpVec:
        return tuple([(key >> o) & mask for o in offsets])

    for key, _ in layer:
        m = exps(key)
        if sum(m) != degree:
            return ValueError(f"term {m} has total degree {sum(m)}, not its layer's {degree}")
    held = [key for key, _ in layer]
    pairs = enumerate(zip(held, keys))
    i = next((i for i, (key, want) in pairs if key != want), min(len(held), len(keys)))

    def name(at: Sequence[int]) -> str:
        return str(exps(at[i])) if i < len(at) else "nothing"

    return ValueError(
        f"layer {degree} holds {name(held)} where lexicographic order puts {name(keys)}"
    )


def _layer_product(a: Layers, b: Layers, d: int, out: dict[int, int]) -> dict[int, int]:
    """Add layer d of the product a * b into out, keyed by packed exponent,
    and return out: sum_i a_i b_{d-i}, where layers past a list's end are
    zero.  This is the package's only loop over coefficient pairs."""
    get = out.get
    for i in range(max(0, d + 1 - len(b)), min(d + 1, len(a))):
        items_b = b[d - i]
        for pa, ca in a[i]:
            for pb, cb in items_b:
                key = pa + pb
                out[key] = get(key, 0) + ca * cb
    return out


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product, truncated at min(a.trunc, b.trunc).

    Each operand is bucketed into packed layers up to its top nonzero one,
    so a sparse operand such as t_1 + ... + t_r pairs no empty layers.
    Only layers up to the truncation are formed, so packed sums never
    overflow."""
    _require_same_nvars(a, b)
    r, trunc = a.nvars, min(a.trunc, b.trunc)
    shift = _packing_shift(trunc)
    pa = _pack_layers(a.terms, r, trunc, shift)
    pb = _pack_layers(b.terms, r, trunc, shift)
    out: dict[int, int] = {}
    for d in range(min(trunc + 1, len(pa) + len(pb) - 1)):
        _layer_product(pa, pb, d, out)
    return TruncatedSeries(r, trunc, _unpack_terms(out.items(), r, shift))


def coeff(a: TruncatedSeries, m: Sequence[int]) -> int:
    """Stored coefficient of the monomial with exponents m, or 0.

    Queries beyond the truncation order raise OutOfRangeError: the series
    holds no information there, which is different from a true zero.
    """
    m = tuple(m)
    if len(m) != a.nvars:
        raise VariableCountMismatchError(
            f"exponent vector {m} has length {len(m)}, expected {a.nvars}"
        )
    if any(e < 0 for e in m):
        raise ValueError(f"negative exponent in {m}")
    if sum(m) > a.trunc:
        raise OutOfRangeError(
            f"degree {sum(m)} beyond truncation {a.trunc}; coefficient unknown"
        )
    return a.terms.get(m, 0)


def _s1_multiple_mismatch(
    quotient: Layers, dividend: Layers, nvars: int, shift: int
) -> tuple[ExpVec, int, int] | None:
    """Where (t_1 + ... + t_r) * quotient differs from dividend, or None.

    Both are packed layers, exponents in fields of ``shift`` bits that must
    hold every exponent of the product.  The product runs through
    ``_layer_product`` against the one layer of t_1 + ... + t_r; a mismatch
    is the first monomial, by degree and then lexicographically, with the
    product's and the dividend's coefficients there.
    """
    s1 = [[(1 << (k * shift), 1) for k in range(nvars)]]  # its one layer, packed
    check: dict[int, int] = {}
    for d in range(len(quotient)):
        _layer_product(s1, quotient, d, check)
    wanted = dict(chain.from_iterable(dividend))
    if check == wanted:
        return None
    # equal as series unless they differ on a nonzero term
    product = _unpack_terms(check.items(), nvars, shift)
    wanted = _unpack_terms(wanted.items(), nvars, shift)
    mismatches = [m for m in product.keys() | wanted.keys() if product.get(m) != wanted.get(m)]
    if not mismatches:
        return None
    bad = min(mismatches, key=lambda e: (sum(e), e))
    return bad, product.get(bad, 0), wanted.get(bad, 0)


def divide_exact_by_s1(a: TruncatedSeries) -> TruncatedSeries:
    """Exact quotient a / (t_1 + ... + t_r), truncated one order lower.

    The coefficient of t^(m + e_1) in (t_1 + ... + t_r) * Q is Q[m] plus
    Q[m + e_1 - e_k] for every k >= 2 with m_k >= 1, so

        Q[m] = A[m + e_1] - sum_{k >= 2, m_k >= 1} Q[m + e_1 - e_k].

    Each m + e_1 - e_k has the degree of m and a first exponent one
    higher, so it comes after m lexicographically: solving each degree in
    descending lexicographic order finds every term on the right solved.
    The quotient is then re-multiplied by ``_s1_multiple_mismatch``;
    NotDivisibleError names the first mismatch, by degree and then
    lexicographically, when a is not an exact multiple.
    """
    r = a.nvars
    if a.constant_term() != 0:
        raise NonzeroConstantError(
            f"dividend has constant term {a.constant_term()}, expected 0"
        )
    if a.trunc < 1:
        raise ValueError("dividend truncated at degree 0 leaves no quotient layers")
    quotient: dict[ExpVec, int] = {}
    for d in range(a.trunc):
        for m in reversed(list(iter_exponents(r, d))):
            up = (m[0] + 1, *m[1:])
            c = a.terms.get(up, 0) - sum(
                quotient.get((*up[:k], m[k] - 1, *up[k + 1 :]), 0) for k in range(1, r) if m[k]
            )
            if c:
                quotient[m] = c
    shift = _packing_shift(a.trunc)
    packed = [_pack_layers(terms, r, a.trunc, shift) for terms in (quotient, a.terms)]
    mismatch = _s1_multiple_mismatch(*packed, r, shift)
    if mismatch is not None:
        bad, product, wanted = mismatch
        raise NotDivisibleError(
            f"dividend is not a multiple of t_1+...+t_{r}: first mismatch at {bad} "
            f"(product has {product}, dividend has {wanted})"
        )
    return TruncatedSeries(r, a.trunc - 1, quotient)


def substitute_signed(a: TruncatedSeries, weights: Sequence[int]) -> UnivariateSeries:
    """Substitute t_k -> w_k * f and collect powers of f.

    The f^n coefficient is the weighted sum of the degree-n layer:
    sum over |m| = n of a[m] * prod_k w_k^{m_k}.
    """
    weights = tuple(weights)
    if len(weights) != a.nvars:
        raise VariableCountMismatchError(
            f"got {len(weights)} weights for {a.nvars} variables"
        )
    coeffs = [0] * (a.trunc + 1)
    for m, c in a.terms.items():
        v = c
        for w, e in zip(weights, m):
            if e:
                v *= w**e
        coeffs[sum(m)] += v
    return UnivariateSeries(tuple(coeffs), a.trunc)


def series_to_dict(a: TruncatedSeries) -> dict:
    """JSON-ready form; coefficients as decimal strings (they outgrow 64-bit
    integers quickly), terms sorted by total degree then lexicographically."""
    items = sorted(a.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return {
        "nvars": a.nvars,
        "trunc": a.trunc,
        "terms": [{"exps": list(m), "coeff": str(c)} for m, c in items],
    }
