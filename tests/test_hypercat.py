"""Tests for the hyper-Catalan solver and closed form."""

from __future__ import annotations

import gc
from itertools import accumulate, chain
from math import comb
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geodenums import hypercat
from geodenums.hypercat import functional_residual, hyper_catalan, solve_S
from geodenums.mpoly import (
    TruncatedSeries,
    _packing_shift,
    coeff,
    constant_series,
    iter_exponents,
    mul,
    sub,
)

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
    # the counts are the list loop's entries; the lane loop adds and
    # prefix-sums the same entries as lanes of one int, and each window's
    # top lane is a positive coefficient below 2^width, so an addition
    # counts its lanes from the bit length
    added, summed, loops = [], [], set()
    width = 1
    lane_sums = hypercat._lane_sums

    def counting_add(a, b):
        added.append(-(-max(a.bit_length(), b.bit_length()) // width))
        return a + b

    def counting_accumulate(window):
        loops.add("list")
        summed.append(len(window))
        return accumulate(window)

    def counting_lane_sums(sums, lane_width, count):
        assert lane_width == width
        loops.add("lane")
        summed.append(len(sums) * count)
        return lane_sums(sums, lane_width, count)

    monkeypatch.setattr(hypercat, "add", counting_add)
    monkeypatch.setattr(hypercat, "accumulate", counting_accumulate)
    monkeypatch.setattr(hypercat, "_lane_sums", counting_lane_sums)
    # the full tables and supports of every size, reach and gap
    supports = [(r, None) for r in range(1, 6)] + [
        (5, (5,)), (5, (1, 3)), (5, (2, 5)), (6, (1, 2, 6)), (6, (3, 4, 5, 6))
    ]
    for r, support in supports:
        size, reach = (r, r) if support is None else (len(support), support[-1])
        for degree in range(9):
            added.clear()
            summed.clear()
            width = hypercat._lane_bits(size, reach, degree)
            _, layers = hypercat._solve_layers(r, degree, support=support)
            windows, additions, prefix, peak = hypercat._solve_counts(size, reach, degree)
            assert (sum(added), sum(summed)) == (additions, prefix), (support, degree)
            # one window per monomial below the top layer and slot; the
            # most power ints one layer holds, from the layers solved
            assert windows == size * sum(map(len, layers[:degree])), (support, degree)
            held = [len(layers[d]) * (1 + (degree - d) * reach) for d in range(degree)]
            assert peak == max(held, default=0), (support, degree)
    assert loops == {"list", "lane"}


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
    # caller's state when it returns and when it raises, in the list loop
    # (one slot) and in the lane loop (three slots)
    inside = {}
    lane_sums = hypercat._lane_sums

    def watching(window):
        inside.setdefault("list", []).append(gc.isenabled())
        return accumulate(window)

    def watching_lanes(sums, width, count):
        inside.setdefault("lane", []).append(gc.isenabled())
        return lane_sums(sums, width, count)

    def raising(*args):
        raise OverflowError("prefix sum")

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        monkeypatch.setattr(hypercat, "accumulate", watching)
        monkeypatch.setattr(hypercat, "_lane_sums", watching_lanes)
        for r in (1, 3):
            for geode in (False, True):
                hypercat._solve_layers(r, 6, geode=geode)
                assert gc.isenabled() == collecting
        assert set(inside) == {"list", "lane"}
        assert not any(chain.from_iterable(inside.values()))
        monkeypatch.setattr(hypercat, "accumulate", raising)
        monkeypatch.setattr(hypercat, "_lane_sums", raising)
        for r in (1, 3):
            with pytest.raises(OverflowError):
                hypercat._solve_layers(r, 6)
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


@st.composite
def tables(draw, max_vars):
    """r and a support of r slots: None for the full table, or slots kept."""
    r = draw(st.integers(1, max_vars))
    kept = st.sets(st.integers(1, r), min_size=1).map(lambda slots: tuple(sorted(slots)))
    return r, draw(st.none() | kept)


@settings(max_examples=60, deadline=None)
@given(tables(8), st.integers(0, 12), st.booleans())
# one slot, two slots at the degree where lanes start, and a gapped support
@example((1, None), 12, True)
@example((2, None), 1, False)
@example((8, None), 4, True)
@example((6, (1, 3, 6)), 8, False)
def test_the_lane_loop_and_the_list_loop_return_equal_layers(table, degree, geode):
    r, support = table
    assume(hypercat.solve_work(r, degree, geode=geode, support=support) <= 400_000)
    slots = range(1, r + 1) if support is None else support
    shift = _packing_shift(degree)
    windows = [(1 << (i * shift), k) for i, k in enumerate(slots)]
    width = hypercat._lane_bits(len(slots), slots[-1], degree, geode)
    lists = hypercat._list_loop(windows, slots[-1], degree, geode)
    assert hypercat._lane_loop(windows, slots[-1], degree, geode, width) == lists
    assert hypercat._solve_layers(r, degree, geode=geode, support=support) == (shift, lists)


def test_lanes_are_no_wider_than_the_priced_coefficient_bound():
    # solve_work prices the lane loop by the list loop's counts at W bits
    for size in range(1, 9):
        for reach in range(size, 12):
            for degree in range(0, 60):
                for geode in (False, True):
                    lanes = hypercat._lane_bits(size, reach, degree, geode)
                    assert lanes <= hypercat._coefficient_bits(size, reach, degree, geode)


@pytest.mark.parametrize("r, degree, geode, support, loop", [
    (1, 60, False, None, "list"),  # one slot
    (5, 60, True, (2,), "list"),
    (2, 1, False, None, "lane"),  # n = 2D
    (3, 1, False, None, "list"),  # n = 2D + 1
    (12, 6, False, None, "lane"),
    (13, 6, True, None, "list"),
    (20, 3, True, None, "list"),
    (9, 2, False, (1, 9), "lane"),
    (2, 34, False, None, "lane"),  # W = 125
    (2, 35, False, None, "list"),  # W = 129
    (2, 33, True, None, "lane"),  # W = 128
    (2, 34, True, None, "list"),  # W = 132
    (2, 40, True, None, "list"),
])
def test_lanes_run_from_two_slots_up_to_two_per_degree_and_128_bit_lanes(
    r, degree, geode, support, loop, monkeypatch
):
    ran = []
    monkeypatch.setattr(hypercat, "_list_loop", lambda *args: ran.append("list") or [])
    monkeypatch.setattr(hypercat, "_lane_loop", lambda *args: ran.append("lane") or [])
    hypercat._solve_layers(r, degree, geode=geode, support=support)
    assert ran == [loop]
