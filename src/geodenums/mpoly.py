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
coefficient) pairs, one list per total degree.  Every series product, the
oracle solve's included, runs through one kernel, ``_layer_product``: one
homogeneous layer of a product of two such series.  The kernel only adds
and multiplies coefficients, so the oracle also runs it on lane-packed
coefficients: ints that hold one monomial's coefficients in r powers of S
side by side, in fixed-width bit lanes that never carry into each other.

Exact division by t_1 + ... + t_r, ``_divide_layers``, works on packed
layers too, so ``geode.geode_series`` divides the solver's layers without
unpacking them.  Whether a quotient times t_1 + ... + t_r gives back its
dividend is decided in one place, ``_s1_multiple_mismatch``, which the
division's own check and ``geode.GeodeTable.factorization_holds`` both
call.

The algebra on ``TruncatedSeries`` values, ``mul``, ``sub``, ``s1_series``,
``constant_series`` and ``divide_exact_by_s1``, packs its operands with
``_pack_layers`` and runs the same kernels.  No package code path calls
it: it is the reference form in which the tests and the benchmark replay
state and time the series algebra.

``geodenums table`` writes S and G from packed layers as well:
``_unpack_layer`` decodes one layer's keys once, sorts them and checks
that each has its layer's degree, which stands in for the check that
``TruncatedSeries`` makes on construction.  ``series_to_dict`` renders
a series as that table's JSON does, and the tests compare the two.

Values are immutable after construction and all operations are pure, so
series may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


@dataclass(frozen=True)
class TruncatedSeries:
    """Multivariate series truncated at a total degree.

    ``terms`` is canonicalized on construction: zero coefficients are
    dropped, keys are validated against ``nvars`` and ``trunc``.  Treat
    instances (including the ``terms`` dict) as immutable.
    """

    nvars: int
    trunc: int
    terms: dict[ExpVec, int]

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError(f"need at least one variable, got nvars={self.nvars}")
        if self.trunc < 0:
            raise ValueError(f"truncation order must be >= 0, got {self.trunc}")
        clean: dict[ExpVec, int] = {}
        for m, c in self.terms.items():
            m = tuple(m)
            if len(m) != self.nvars:
                raise VariableCountMismatchError(
                    f"exponent vector {m} has length {len(m)}, expected {self.nvars}"
                )
            if min(m) < 0:
                raise ValueError(f"negative exponent in {m}")
            if sum(m) > self.trunc:
                raise ValueError(
                    f"term {m} has total degree {sum(m)} above truncation {self.trunc}"
                )
            if c:
                clean[m] = c
        object.__setattr__(self, "terms", clean)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class UnivariateSeries:
    """Coefficient list in a single variable f; index n holds the f^n term."""

    coeffs: tuple[int, ...]
    trunc: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.trunc + 1:
            raise ValueError(
                f"need trunc+1 = {self.trunc + 1} coefficients, got {len(self.coeffs)}"
            )

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
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in iter_exponents(nvars - 1, total - head):
            yield (head,) + rest


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


def _unpack_layer(
    layer: Iterable[tuple[int, int]], nvars: int, shift: int, degree: int
) -> list[tuple[ExpVec, int]]:
    """Packed layer `degree` as (exponent tuple, coefficient) pairs in
    lexicographic order, dropping zero coefficients as ``_unpack_terms``
    does.  Each key is decoded once; a tuple whose total degree is not
    `degree`, as from a field that overflowed, raises ValueError."""
    mask = (1 << shift) - 1
    offsets = [i * shift for i in range(nvars)]
    rows = sorted([(tuple([(packed >> o) & mask for o in offsets]), c) for packed, c in layer if c])
    for m, _ in rows:
        if sum(m) != degree:
            raise ValueError(f"term {m} has total degree {sum(m)}, not its layer's {degree}")
    return rows


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


def _divide_layers(layers: Layers, nvars: int, shift: int) -> Layers:
    """Exact quotient of packed layers by t_1 + ... + t_r, by layers.

    ``layers`` is the dividend, without a constant term; quotient layer d is
    solved from dividend layer d + 1 by the triangular recurrence

        Q[m] = A[m + e_1] - sum_{k >= 2} Q[m + e_1 - e_k],

    in push form: monomials run in decreasing order of the first exponent,
    and once Q[m] with m_1 >= 1 is known it is subtracted into
    m - e_1 + e_k for every k >= 2, so only the monomials that the dividend
    or a push reaches are visited.  The quotient is then re-multiplied
    against t_1 + ... + t_r and compared with the dividend on every degree
    by ``_s1_multiple_mismatch``; a mismatch means the dividend was not an
    exact multiple and raises NotDivisibleError naming the first one, by
    degree and then lexicographically.  Fields of ``shift`` bits must hold
    every exponent of the dividend.
    """
    mask = (1 << shift) - 1
    pushes = [(1 << (k * shift)) - 1 for k in range(1, nvars)]  # m -> m - e_1 + e_k
    quotient: Layers = []
    for d in range(len(layers) - 1):
        # by_first[j] collects the monomials of degree d with m_1 = j
        by_first: list[dict[int, int]] = [{} for _ in range(d + 1)]
        for key, c in layers[d + 1]:
            if key & mask:
                by_first[(key & mask) - 1][key - 1] = c
        layer = []
        for j in range(d, 0, -1):
            target = by_first[j - 1]
            get = target.get
            for key, c in by_first[j].items():
                if c:
                    layer.append((key, c))
                    for push in pushes:
                        k = key + push
                        target[k] = get(k, 0) - c
        layer.extend((key, c) for key, c in by_first[0].items() if c)
        quotient.append(layer)
    mismatch = _s1_multiple_mismatch(quotient, layers, nvars, shift)
    if mismatch is not None:
        bad, product, wanted = mismatch
        raise NotDivisibleError(
            f"dividend is not a multiple of t_1+...+t_{nvars}: first mismatch at {bad} "
            f"(product has {product}, dividend has {wanted})"
        )
    return quotient


def divide_exact_by_s1(a: TruncatedSeries) -> TruncatedSeries:
    """Exact quotient a / (t_1 + ... + t_r), truncated one order lower.

    Packs the dividend and divides it by ``_divide_layers``, which checks
    the quotient by re-multiplication; NotDivisibleError names the first
    mismatch when a is not an exact multiple.
    """
    r = a.nvars
    if a.constant_term() != 0:
        raise NonzeroConstantError(
            f"dividend has constant term {a.constant_term()}, expected 0"
        )
    if a.trunc < 1:
        raise ValueError("dividend truncated at degree 0 leaves no quotient layers")
    shift = _packing_shift(a.trunc)
    quotient = _divide_layers(_pack_layers(a.terms, r, a.trunc, shift), r, shift)
    return TruncatedSeries(r, a.trunc - 1, _unpack_terms(chain.from_iterable(quotient), r, shift))


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
