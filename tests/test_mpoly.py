"""Tests for the truncated-series kernel."""

from __future__ import annotations

import random

import pytest

from geodenums import mpoly
from geodenums.mpoly import (
    NonzeroConstantError,
    NotDivisibleError,
    OutOfRangeError,
    TruncatedSeries,
    UnivariateSeries,
    VariableCountMismatchError,
    coeff,
    constant_series,
    divide_exact_by_s1,
    iter_exponents,
    mul,
    s1_series,
    series_to_dict,
    sub,
    substitute_signed,
)


def random_series(rng: random.Random, nvars: int, trunc: int, density: float = 0.6) -> TruncatedSeries:
    terms = {}
    for d in range(trunc + 1):
        for m in iter_exponents(nvars, d):
            if rng.random() < density:
                c = rng.randint(-9, 9)
                if c:
                    terms[m] = c
    return TruncatedSeries(nvars, trunc, terms)


def naive_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Independent convolution, term pair by term pair."""
    trunc = min(a.trunc, b.trunc)
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(m) <= trunc:
                out[m] = out.get(m, 0) + c1 * c2
    return TruncatedSeries(a.nvars, trunc, out)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_construction_drops_zero_coefficients():
    s = TruncatedSeries(2, 3, {(1, 0): 1, (0, 1): 0})
    assert s.terms == {(1, 0): 1}


def test_construction_rejects_bad_terms():
    with pytest.raises(VariableCountMismatchError):
        TruncatedSeries(2, 3, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(-1, 0): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(4, 0): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(0, 3, {})
    with pytest.raises(ValueError):
        TruncatedSeries(2, -1, {})


def test_equality_includes_trunc_and_nvars():
    a = TruncatedSeries(2, 3, {(1, 0): 1})
    assert a == TruncatedSeries(2, 3, {(1, 0): 1})
    assert a != TruncatedSeries(2, 4, {(1, 0): 1})
    assert a != TruncatedSeries(2, 3, {(0, 1): 1})


# ---------------------------------------------------------------------------
# sub


def test_sub_cancellation_gives_zero_series():
    t1 = TruncatedSeries(2, 3, {(1, 0): 1})
    assert sub(t1, t1) == TruncatedSeries(2, 3, {})


def test_sub_disjoint_terms():
    a = TruncatedSeries(2, 3, {(0, 0): 1, (1, 0): 1})
    b = TruncatedSeries(2, 3, {(0, 1): 1})
    assert sub(a, b).terms == {(0, 0): 1, (1, 0): 1, (0, 1): -1}


def test_s1_built_from_variables():
    built = sub(TruncatedSeries(2, 3, {(1, 0): 1}), TruncatedSeries(2, 3, {(0, 1): -1}))
    assert built == s1_series(2, 3)
    assert built.terms == {(1, 0): 1, (0, 1): 1}


def test_sub_requires_same_nvars():
    with pytest.raises(VariableCountMismatchError):
        sub(TruncatedSeries(2, 3, {}), TruncatedSeries(3, 3, {}))


def test_sub_truncates_to_min():
    a = TruncatedSeries(2, 5, {(4, 0): 7})
    b = constant_series(2, 2, 1)
    out = sub(a, b)
    assert out.trunc == 2
    assert out.terms == {(0, 0): -1}


# ---------------------------------------------------------------------------
# mul


def test_mul_linear_times_quadratic_layer():
    lin = s1_series(2, 3)
    quad = TruncatedSeries(2, 3, {(2, 0): 5, (1, 1): 16, (0, 2): 12})
    assert mul(lin, quad).terms == {(3, 0): 5, (2, 1): 21, (1, 2): 28, (0, 3): 12}


def test_mul_difference_of_squares():
    one_plus = TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): 1})
    one_minus = TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): -1})
    assert mul(one_plus, one_minus).terms == {(0, 0): 1, (2, 0): -1}


def test_mul_drops_terms_beyond_truncation():
    top = TruncatedSeries(2, 3, {(3, 0): 1})
    lin = TruncatedSeries(2, 3, {(1, 0): 1})
    assert mul(top, lin) == TruncatedSeries(2, 3, {})


def test_mul_commutative_and_matches_naive():
    rng = random.Random(7)
    for nvars in (1, 2, 3):
        for _ in range(8):
            a = random_series(rng, nvars, rng.randint(1, 5))
            b = random_series(rng, nvars, rng.randint(1, 5))
            ab = mul(a, b)
            assert ab == mul(b, a)
            assert ab == naive_mul(a, b)


def test_mul_associative():
    rng = random.Random(11)
    for _ in range(6):
        a = random_series(rng, 2, 4)
        b = random_series(rng, 2, 4)
        c = random_series(rng, 2, 4)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


# ---------------------------------------------------------------------------
# division by t_1 + ... + t_r


def test_divide_cubic_layer():
    dividend = TruncatedSeries(2, 3, {(3, 0): 5, (2, 1): 21, (1, 2): 28, (0, 3): 12})
    q = divide_exact_by_s1(dividend)
    assert q.trunc == 2
    assert q.terms == {(2, 0): 5, (1, 1): 16, (0, 2): 12}


def test_divide_difference_of_squares():
    dividend = TruncatedSeries(2, 2, {(2, 0): 1, (0, 2): -1})
    assert divide_exact_by_s1(dividend).terms == {(1, 0): 1, (0, 1): -1}


def test_divide_single_variable_not_divisible():
    with pytest.raises(NotDivisibleError):
        divide_exact_by_s1(TruncatedSeries(2, 2, {(1, 0): 1}))


def test_divide_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantError):
        divide_exact_by_s1(constant_series(2, 2, 1))


def test_divide_roundtrip_random():
    rng = random.Random(42)
    for nvars in (1, 2, 3, 4):
        for _ in range(5):
            q = random_series(rng, nvars, rng.randint(1, 4))
            trunc = q.trunc + 1
            dividend = mul(s1_series(nvars, trunc), TruncatedSeries(nvars, trunc, q.terms))
            recovered = divide_exact_by_s1(dividend)
            assert recovered == q
            lifted = TruncatedSeries(nvars, trunc, recovered.terms)
            assert mul(s1_series(nvars, trunc), lifted) == dividend


# ---------------------------------------------------------------------------
# substitution


def test_substitute_signed_quadratic_layer():
    layer = TruncatedSeries(2, 2, {(2, 0): 5, (1, 1): 16, (0, 2): 12})
    out = substitute_signed(layer, (-1, 1))
    assert out.coeffs == (0, 0, 5 - 16 + 12)
    assert out.coefficient(2) == 1


def test_substitute_signed_cubic_layer():
    layer = TruncatedSeries(2, 3, {(3, 0): 14, (2, 1): 70, (1, 2): 110, (0, 3): 55})
    assert substitute_signed(layer, (-1, 1)).coefficient(3) == -14 + 70 - 110 + 55 == 1


def test_substitute_zero_weights_keeps_constant_only():
    s = TruncatedSeries(2, 3, {(0, 0): 4, (1, 0): 2, (1, 1): -5})
    assert substitute_signed(s, (0, 0)).coeffs == (4, 0, 0, 0)


def test_substitute_signed_is_linear():
    rng = random.Random(5)
    for _ in range(6):
        a = random_series(rng, 3, 4)
        b = random_series(rng, 3, 4)
        w = tuple(rng.randint(-3, 3) for _ in range(3))
        lhs = substitute_signed(sub(a, b), w)
        assert lhs.coeffs == tuple(
            x - y for x, y in zip(substitute_signed(a, w).coeffs, substitute_signed(b, w).coeffs)
        )


def test_substitute_weight_count_checked():
    with pytest.raises(VariableCountMismatchError):
        substitute_signed(TruncatedSeries(2, 2, {}), (1,))


# ---------------------------------------------------------------------------
# coefficient access


def test_coeff_present_and_absent():
    s = TruncatedSeries(2, 3, {(1, 1): 16})
    assert coeff(s, (1, 1)) == 16
    assert coeff(s, (0, 1)) == 0


def test_coeff_beyond_truncation_raises():
    s = TruncatedSeries(2, 3, {(1, 1): 16})
    with pytest.raises(OutOfRangeError):
        coeff(s, (2, 2))


def test_coeff_validates_query():
    s = TruncatedSeries(2, 3, {})
    with pytest.raises(VariableCountMismatchError):
        coeff(s, (1,))
    with pytest.raises(ValueError):
        coeff(s, (-1, 0))


# ---------------------------------------------------------------------------
# canonical form across operations


def test_operations_never_store_zeros():
    rng = random.Random(13)
    for _ in range(10):
        a = random_series(rng, 2, 4)
        b = random_series(rng, 2, 4)
        for out in (sub(a, b), sub(b, a), sub(a, a), mul(a, b)):
            assert all(c != 0 for c in out.terms.values())


# ---------------------------------------------------------------------------
# serialization


def test_json_dict_shape_and_order():
    s = TruncatedSeries(2, 2, {(1, 1): 16, (0, 0): 1, (2, 0): 5, (0, 1): 3})
    data = series_to_dict(s)
    assert data["nvars"] == 2 and data["trunc"] == 2
    assert data["terms"] == [
        {"exps": [0, 0], "coeff": "1"},
        {"exps": [0, 1], "coeff": "3"},
        {"exps": [1, 1], "coeff": "16"},
        {"exps": [2, 0], "coeff": "5"},
    ]
    assert all(isinstance(t["coeff"], str) for t in data["terms"])


@pytest.mark.parametrize("sep", [",", ",\n        "], ids=["csv", "json"])
def test_layer_labels_list_every_monomial_of_each_degree_in_lexicographic_order(sep):
    # r = 1..5 through degree 6, then deep and wide
    for r, top in [(r, top) for r in range(1, 6) for top in range(7)] + [(1, 60), (2, 30), (40, 3)]:
        shift = mpoly._packing_shift(top)
        labels = list(mpoly._layer_labels(r, shift, top, sep))
        assert len(labels) == top + 1, (r, top)
        for d, (keys, texts) in enumerate(labels):
            monomials = list(iter_exponents(r, d))
            packed = [sum(e << (i * shift) for i, e in enumerate(m)) for m in monomials]
            assert keys == packed, (r, top, d)
            assert texts == [sep.join(map(str, m)) for m in monomials], (r, top, d)


def read_back(data: dict) -> TruncatedSeries:
    return TruncatedSeries(
        data["nvars"], data["trunc"], {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]}
    )


def test_json_roundtrip_random():
    # every term once, by total degree and then lexicographically, its
    # coefficient a decimal string; read back, the terms give the series
    rng = random.Random(17)
    for _ in range(5):
        s = random_series(rng, 3, 5)
        data = series_to_dict(s)
        assert (data["nvars"], data["trunc"]) == (3, 5)
        assert data["terms"] == [
            {"exps": list(m), "coeff": str(s.terms[m])}
            for d in range(6)
            for m in iter_exponents(3, d)
            if m in s.terms
        ]
        assert read_back(data) == s


def test_json_roundtrip_huge_coefficient():
    s = TruncatedSeries(1, 2, {(2,): 10**40 + 7})
    data = series_to_dict(s)
    assert data["terms"] == [{"exps": [2], "coeff": "1" + "0" * 39 + "7"}]
    assert read_back(data) == s


# ---------------------------------------------------------------------------
# univariate container and exponent enumeration


def test_univariate_length_invariant():
    u = UnivariateSeries((1, 2, 4), 2)
    assert u.coefficient(2) == 4
    with pytest.raises(ValueError):
        UnivariateSeries((1, 2), 2)
    with pytest.raises(OutOfRangeError):
        u.coefficient(3)


def test_iter_exponents_order_and_count():
    from math import comb

    got = list(iter_exponents(3, 2))
    assert got[0] == (0, 0, 2) and got[-1] == (2, 0, 0)
    assert got == sorted(got)
    assert len(got) == comb(2 + 2, 2)
    assert len(set(got)) == len(got)
    for nvars in (1, 2, 4):
        for d in range(5):
            assert len(list(iter_exponents(nvars, d))) == comb(d + nvars - 1, nvars - 1)
    # a recursive walk raised RecursionError from about 990 variables
    got = list(iter_exponents(2000, 1))
    assert len(got) == 2000 and got == sorted(got)
    assert got[0] == (0,) * 1999 + (1,) and got[-1] == (1,) + (0,) * 1999
