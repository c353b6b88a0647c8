"""Tests for the hyper-Catalan solver and closed form."""

from __future__ import annotations

import gc
from itertools import accumulate
from math import comb
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodenums import hypercat
from geodenums.hypercat import functional_residual, hyper_catalan, solve_S
from geodenums.mpoly import TruncatedSeries, coeff, constant_series, iter_exponents, mul, sub

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]
# single-t_2 column: S = 1 + t_2 S^3
FUSS_T2 = [1, 1, 3, 12, 55, 273]
# single-t_3 column: S = 1 + t_3 S^4
FUSS_T3 = [1, 1, 4, 22]


def test_single_variable_column_is_catalan():
    s = solve_S(1, 7)
    assert [coeff(s, (n,)) for n in range(8)] == CATALAN


def test_two_variable_cubic_layer():
    s = solve_S(2, 3)
    assert {m: c for m, c in s.terms.items() if sum(m) == 3} == {
        (3, 0): 5,
        (2, 1): 21,
        (1, 2): 28,
        (0, 3): 12,
    }


def test_constant_term_is_one():
    for r in (1, 2, 3, 4):
        assert solve_S(r, 2).constant_term() == 1


def test_closed_form_small_values():
    assert hyper_catalan((2, 0)) == 2
    assert hyper_catalan((1, 1)) == 5
    assert hyper_catalan((0, 2)) == 3
    assert hyper_catalan((3, 0)) == 5
    assert hyper_catalan((0, 0)) == 1
    assert hyper_catalan(()) == 1
    with pytest.raises(ValueError):
        hyper_catalan((1, -1))


def test_closed_form_matches_oracle():
    for r, degree in ((1, 8), (2, 8), (3, 8), (4, 8), (5, 5), (6, 5)):
        s = solve_S(r, degree)
        for d in range(degree + 1):
            for m in iter_exponents(r, d):
                assert coeff(s, m) == hyper_catalan(m), m


def test_functional_equation_residual_vanishes():
    for r in (1, 2, 3, 4, 5, 6):
        assert functional_residual(solve_S(r, 6)).is_zero()


def test_residual_is_nonzero_where_a_coefficient_is_bumped():
    # t_k S^{k+1} reads S below degree |m| only, so raising S[m] by one makes
    # the residual -1 at m and leaves every lower degree zero.
    for r in (1, 2, 3, 4):
        degree = 5
        s = solve_S(r, degree)
        for d in (0, 1, 3, degree):
            for m in list(iter_exponents(r, d))[:: max(1, d)]:
                terms = dict(s.terms)
                terms[m] += 1
                residual = functional_residual(TruncatedSeries(r, degree, terms))
                assert coeff(residual, m) == -1, (r, m)
                assert all(sum(e) >= d for e in residual.terms), (r, m)


def test_fuss_catalan_columns_from_restriction():
    s2 = solve_S(2, 5)
    assert [coeff(s2, (0, j)) for j in range(6)] == FUSS_T2
    s3 = solve_S(3, 3)
    assert [coeff(s3, (0, 0, j)) for j in range(4)] == FUSS_T3
    # the same columns through the closed form
    assert [hyper_catalan((0, j)) for j in range(6)] == FUSS_T2
    assert [hyper_catalan((0, 0, j)) for j in range(4)] == FUSS_T3


def test_solver_validates_arguments():
    with pytest.raises(ValueError):
        solve_S(0, 3)
    with pytest.raises(ValueError):
        solve_S(2, -1)
    # a support is a nonempty increasing sequence of slots in 1..r
    for support in [(), (0,), (4,), (2, 1), (1, 1), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match="support must be increasing slots in 1..3"):
            hypercat._solve_layers(3, 2, support=support)


def test_solve_counts_count_the_window_additions_and_prefix_sums(monkeypatch):
    added, summed = [], []

    def counting_add(a, b):
        added.append(1)
        return a + b

    def counting_accumulate(window):
        summed.append(len(window))
        return accumulate(window)

    monkeypatch.setattr(hypercat, "add", counting_add)
    monkeypatch.setattr(hypercat, "accumulate", counting_accumulate)
    # the full tables and supports of every size, reach and gap
    supports = [(r, None) for r in range(1, 6)] + [
        (5, (5,)), (5, (1, 3)), (5, (2, 5)), (6, (1, 2, 6)), (6, (3, 4, 5, 6))
    ]
    for r, support in supports:
        size, reach = (r, r) if support is None else (len(support), support[-1])
        for degree in range(9):
            added.clear()
            summed.clear()
            _, layers = hypercat._solve_layers(r, degree, support=support)
            windows, additions, prefix, peak = hypercat._solve_counts(size, reach, degree)
            assert (len(added), sum(summed)) == (additions, prefix), (support, degree)
            # one window per monomial below the top layer and slot; the
            # most power ints one layer holds, from the layers solved
            assert windows == size * sum(map(len, layers[:degree])), (support, degree)
            held = [len(layers[d]) * (1 + (degree - d) * reach) for d in range(degree)]
            assert peak == max(held, default=0), (support, degree)


def test_power_recurrence_holds_on_product_powers():
    # S^j - S^{j-1} = sum_k t_k S^{j+k} on layer d for j <= 1 + (D - d) r,
    # the identity _solve_layers runs, checked on S from the closed form
    # and its powers from mul chains, so no part of the solver is used.
    top = 8
    for r in range(1, 5):
        s = TruncatedSeries(
            r, top, {m: hyper_catalan(m) for d in range(top + 1) for m in iter_exponents(r, d)}
        )
        powers = [constant_series(r, top, 1)]
        while len(powers) <= 1 + top * r:
            powers.append(mul(powers[-1], s))
        units = [tuple(int(i == k) for i in range(r)) for k in range(r)]
        for d in range(1, top + 1):
            for j in range(1, 2 + (top - d) * r):
                lhs = {m: c for m, c in sub(powers[j], powers[j - 1]).terms.items() if sum(m) == d}
                rhs = {}
                for k, unit in enumerate(units, start=1):
                    for m, c in powers[j + k].terms.items():
                        if sum(m) == d - 1:
                            key = tuple(map(add, m, unit))
                            rhs[key] = rhs.get(key, 0) + c
                assert lhs == rhs, (r, d, j)


@pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
def test_a_solve_leaves_the_collector_as_it_found_it(collecting, monkeypatch):
    # the solve runs with the cyclic collector off and restores the
    # caller's state when it returns and when it raises
    inside = []

    def watching(window):
        inside.append(gc.isenabled())
        return accumulate(window)

    def raising(window):
        raise OverflowError("prefix sum")

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        monkeypatch.setattr(hypercat, "accumulate", watching)
        for geode in (False, True):
            hypercat._solve_layers(3, 6, geode=geode)
            assert gc.isenabled() == collecting
        assert inside and not any(inside)
        monkeypatch.setattr(hypercat, "accumulate", raising)
        with pytest.raises(OverflowError):
            hypercat._solve_layers(3, 6)
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10), st.booleans())
# wide, deep, and wide again at a higher degree
@example(100, 2, False)
@example(100, 2, True)
@example(1, 200, False)
@example(1, 200, True)
@example(40, 3, False)
@example(40, 3, True)
def test_each_layer_lists_every_monomial_once_in_descending_lexicographic_order(r, degree, geode):
    # the order `geodenums table` labels its rows from: layer d holds all
    # C(r + d - 1, d) monomials of degree d, each with a positive
    # coefficient, their exponent tuples strictly descending
    shift, layers = hypercat._solve_layers(r, degree, geode=geode)
    mask = (1 << shift) - 1
    assert len(layers) == degree + 1
    for d, layer in enumerate(layers):
        exps = [tuple((key >> (i * shift)) & mask for i in range(r)) for key, _ in layer]
        assert len(layer) == comb(r + d - 1, d), (r, degree, d)
        assert all(c > 0 for _, c in layer), (r, degree, d)
        assert all(sum(m) == d for m in exps), (r, degree, d)
        assert all(a > b for a, b in zip(exps, exps[1:])), (r, degree, d)
