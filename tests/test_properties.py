"""Property-based tests: the series algebra, the oracle and the claim sums
on inputs drawn by Hypothesis rather than picked by hand."""

from __future__ import annotations

from itertools import chain
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodenums.hypercat import _solve_layers, hyper_catalan, solve_S
from geodenums.identities import claim1_sum
from geodenums.mpoly import (
    NotDivisibleError,
    TruncatedSeries,
    _layer_product,
    _pack_layers,
    _packing_shift,
    _s1_multiple_mismatch,
    _unpack_terms,
    coeff,
    divide_exact_by_s1,
    iter_exponents,
    mul,
    s1_series,
    series_to_dict,
)

small = settings(max_examples=25, deadline=None)


@st.composite
def series(draw, nvars=None, trunc=None):
    """A series in 1..3 variables truncated at 0..4 with small coefficients."""
    if nvars is None:
        nvars = draw(st.integers(1, 3))
    if trunc is None:
        trunc = draw(st.integers(0, 4))
    exps = st.lists(st.integers(0, trunc), min_size=nvars, max_size=nvars).filter(
        lambda m: sum(m) <= trunc
    )
    terms = draw(st.dictionaries(exps.map(tuple), st.integers(-9, 9), max_size=12))
    return TruncatedSeries(nvars, trunc, terms)


@st.composite
def series_tuple(draw, count):
    """`count` series sharing one variable count, each with its own truncation."""
    nvars = draw(st.integers(1, 3))
    return [draw(series(nvars=nvars)) for _ in range(count)]


def naive_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    trunc = min(a.trunc, b.trunc)
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(m) <= trunc:
                out[m] = out.get(m, 0) + c1 * c2
    return TruncatedSeries(a.nvars, trunc, out)


@small
@given(series_tuple(2))
def test_mul_commutes_and_matches_naive_convolution(pair):
    a, b = pair
    assert mul(a, b) == mul(b, a) == naive_mul(a, b)


@small
@given(series_tuple(3))
def test_mul_is_associative_under_truncation(triple):
    a, b, c = triple
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@small
@given(series_tuple(2))
def test_layer_product_matches_a_plain_convolution_on_every_degree(pair):
    # the operands packed up to their top nonzero layers, so the degrees
    # run past the end of either list, and of both
    a, b = pair
    r, top = a.nvars, a.trunc + b.trunc
    shift = _packing_shift(top)
    packed_a, packed_b = (_pack_layers(s.terms, r, s.trunc, shift) for s in pair)
    for d in range(top + 2):
        expected: dict = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                if sum(m1) + sum(m2) == d:
                    m = tuple(map(add, m1, m2))
                    expected[m] = expected.get(m, 0) + c1 * c2
        layer = _layer_product(packed_a, packed_b, d, {})
        assert _unpack_terms(layer.items(), r, shift) == {m: c for m, c in expected.items() if c}


@small
@given(st.data())
def test_s1_multiple_mismatch_names_the_first_perturbed_monomial(data):
    # s1 * Q is a multiple of s1; adding nonzero amounts at some monomials
    # makes the first of them, by degree and then lexicographically, the
    # first mismatch, with the product's and the dividend's coefficients
    q = data.draw(series())
    r, trunc = q.nvars, q.trunc + 1
    product = naive_mul(s1_series(r, trunc), TruncatedSeries(r, trunc, q.terms)).terms
    shift = _packing_shift(trunc)
    quotient = _pack_layers(q.terms, r, trunc, shift)
    assert _s1_multiple_mismatch(quotient, _pack_layers(product, r, trunc, shift), r, shift) is None
    monomials = (
        st.lists(st.integers(0, trunc), min_size=r, max_size=r)
        .filter(lambda m: sum(m) <= trunc)
        .map(tuple)
    )
    changes = data.draw(
        st.dictionaries(monomials, st.integers(-9, 9).filter(bool), min_size=1, max_size=4)
    )
    dividend = dict(product)
    for m, c in changes.items():
        dividend[m] = dividend.get(m, 0) + c
    dividend = {m: c for m, c in dividend.items() if c}
    bad = min(changes, key=lambda m: (sum(m), m))
    expected = (bad, product.get(bad, 0), dividend.get(bad, 0))
    packed = _pack_layers(dividend, r, trunc, shift)
    assert _s1_multiple_mismatch(quotient, packed, r, shift) == expected


@small
@given(series())
def test_division_by_s1_undoes_multiplication(q):
    trunc = q.trunc + 1
    product = mul(s1_series(q.nvars, trunc), TruncatedSeries(q.nvars, trunc, q.terms))
    assert divide_exact_by_s1(product) == q


@small
@given(st.integers(1, 5), st.integers(0, 7))
@example(40, 3)  # the wide shapes of test_geode.py's SEEDED_SHAPES
@example(100, 2)
def test_seeded_layers_times_s1_equal_s_minus_1(r, degree):
    # the layers of G, from the solve seeded 1, 2, ..., times t_1 + ... +
    # t_r, against S from the solve seeded 1, ..., 1 one degree up, less 1
    shift, s = _solve_layers(r, degree + 1)
    s[0] = []
    g_shift, g = _solve_layers(r, degree, geode=True)
    g = _pack_layers(_unpack_terms(chain.from_iterable(g), r, g_shift), r, degree, shift)
    assert _s1_multiple_mismatch(g, s, r, shift) is None


@small
@given(st.data())
def test_stray_monomial_makes_division_fail_at_its_first_mismatch(data):
    # Setting t_1 = -(t_2 + ... + t_r) kills s1 * Q, so the product of the
    # computed quotient misses A + c t^m by c (-(t_2 + ... + t_r))^{m_1}
    # t_2^{m_2}...t_r^{m_r}: on degree |m|, on monomials free of t_1 (the
    # recurrence fits every other one).  Its lex-first monomial puts all of
    # m_1 on t_r, with coefficient c (-1)^{m_1}.
    r = data.draw(st.integers(2, 3))
    q = data.draw(series(nvars=r))
    trunc = q.trunc + 1
    dividend = mul(s1_series(r, trunc), TruncatedSeries(r, trunc, q.terms))
    m = data.draw(
        st.lists(st.integers(0, trunc), min_size=r, max_size=r)
        .filter(lambda m: 1 <= sum(m) <= trunc)
        .map(tuple)
    )
    c = data.draw(st.integers(-9, 9).filter(bool))
    terms = dict(dividend.terms)
    terms[m] = terms.get(m, 0) + c
    bad = (0,) + m[1:-1] + (m[-1] + m[0],)
    has = terms.get(bad, 0)
    expected = (
        f"dividend is not a multiple of t_1+...+t_{r}: first mismatch at {bad} "
        f"(product has {has - c * (-1) ** m[0]}, dividend has {has})"
    )
    with pytest.raises(NotDivisibleError) as exc:
        divide_exact_by_s1(TruncatedSeries(r, trunc, terms))
    assert str(exc.value) == expected


@small
@given(series())
def test_json_roundtrip(s):
    # every term in order, by total degree and then lexicographically, with
    # its coefficient as a decimal string; read back, the terms give s
    data = series_to_dict(s)
    assert (data["nvars"], data["trunc"]) == (s.nvars, s.trunc)
    assert data["terms"] == [
        {"exps": list(m), "coeff": str(s.terms[m])}
        for d in range(s.trunc + 1)
        for m in iter_exponents(s.nvars, d)
        if m in s.terms
    ]
    read = {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]}
    assert TruncatedSeries(s.nvars, s.trunc, read) == s


@small
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda m: sum(m) <= 5))
def test_closed_form_matches_oracle(m):
    assert hyper_catalan(m) == coeff(solve_S(len(m), sum(m)), m)


@small
@given(st.integers(1, 4), st.integers(0, 6))
def test_oracle_layers_match_closed_form_and_lower_truncations(r, degree):
    s = solve_S(r, degree)
    for d in range(degree + 1):
        for m in iter_exponents(r, d):
            assert coeff(s, m) == hyper_catalan(m), m
        lower = {m: c for m, c in s.terms.items() if sum(m) <= d}
        assert TruncatedSeries(r, d, lower) == solve_S(r, d)


@small
@given(st.integers(1, 5), st.integers(1, 2), st.integers(-10**6, 10**6))
def test_claim1_vanishes_at_any_integer(n, a, x):
    assert claim1_sum(n, a, x) == 0
