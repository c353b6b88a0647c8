"""Tests for the Geode series, its closed forms and evaluations."""

from __future__ import annotations

from math import comb, factorial

import pytest

from geodenums.geode import (
    GeodeTable,
    _exact_div,
    eval_alternating,
    eval_general,
    eval_line,
    factorization_work,
    general_weights,
    geode_closed_shifted,
    geode_closed_two_nonzero,
    geode_recurrence_check,
    geode_series,
    geode_work,
)
from geodenums.hypercat import hyper_catalan, solve_S, solve_work
from geodenums.mpoly import (
    OutOfRangeError,
    TruncatedSeries,
    coeff,
    divide_exact_by_s1,
    iter_exponents,
)


def test_low_degree_layers():
    g = geode_series(2, 3).series
    assert g.constant_term() == 1
    assert {m: c for m, c in g.terms.items() if sum(m) == 1} == {(1, 0): 2, (0, 1): 3}
    assert {m: c for m, c in g.terms.items() if sum(m) == 2} == {
        (2, 0): 5,
        (1, 1): 16,
        (0, 2): 12,
    }
    assert {m: c for m, c in g.terms.items() if sum(m) == 3} == {
        (3, 0): 14,
        (2, 1): 70,
        (1, 2): 110,
        (0, 3): 55,
    }


def paper_two_variable(m1, m2):
    """The paper's two-variable formula, kept here as a reference for
    ``geode_closed_shifted(2, m1, m2)``: G[m1, m2] = (2m1+3m2+3)! /
    ((2m1+2m2+3)(m1+m2+1)(m1+2m2+2)! m1! m2!)."""
    num = factorial(2 * m1 + 3 * m2 + 3)
    den = (2 * m1 + 2 * m2 + 3) * (m1 + m2 + 1) * factorial(m1 + 2 * m2 + 2)
    den *= factorial(m1) * factorial(m2)
    return _exact_div(num, den)


def test_paper_two_variable_values():
    assert paper_two_variable(0, 0) == 1
    assert paper_two_variable(1, 1) == 16
    assert paper_two_variable(0, 2) == 12
    assert paper_two_variable(3, 0) == 14


def test_paper_two_variable_matches_table():
    table = geode_series(2, 6)
    for d in range(7):
        for m1, m2 in iter_exponents(2, d):
            assert paper_two_variable(m1, m2) == table.coefficient((m1, m2))


def test_closed_shifted_values():
    assert geode_closed_shifted(2, 0, 0) == 1
    assert geode_closed_shifted(2, 1, 1) == 16
    # adjacent slots 2, 3: exponent 1 on variable 2 only
    assert geode_closed_shifted(3, 1, 0) == 3
    assert geode_closed_shifted(3, 1, 0) == geode_series(3, 1).coefficient((0, 1, 0))


def test_closed_shifted_at_a_2_is_the_paper_two_variable_formula():
    for p in range(60):
        for q in range(60):
            assert geode_closed_shifted(2, p, q) == paper_two_variable(p, q)


def test_closed_shifted_matches_oracle_three_adjacent():
    table = geode_series(3, 5)
    for p in range(6):
        for q in range(6 - p):
            assert geode_closed_shifted(3, p, q) == table.coefficient((0, p, q))


def test_closed_shifted_rejects_small_a():
    with pytest.raises(ValueError):
        geode_closed_shifted(1, 0, 0)


def test_two_nonzero_values():
    assert geode_closed_two_nonzero(1, 2, 3, 1) == 16
    assert geode_closed_two_nonzero(1, 2, 2, 0) == 2
    assert geode_closed_two_nonzero(2, 3, 2, 1) == geode_series(3, 1).coefficient((0, 0, 1)) == 4


def test_two_nonzero_consistent_with_shifted_at_a_2():
    for n in range(1, 7):
        for i in range(n):
            assert geode_closed_two_nonzero(1, 2, n, i) == geode_closed_shifted(2, n - 1 - i, i)


def test_two_nonzero_validates_arguments():
    with pytest.raises(ValueError):
        geode_closed_two_nonzero(2, 2, 3, 0)
    with pytest.raises(ValueError):
        geode_closed_two_nonzero(1, 2, 3, 3)


def test_eval_alternating_small():
    assert eval_alternating(1, 4).coeffs == (1, 1, 1, 1, 1)
    assert eval_alternating(2, 3).coeffs == (1, 2, 4, 8)


def test_eval_alternating_is_eval_general_at_all_ones():
    # and the line solve on the alternating weights, whose f^n coefficient
    # is a^n
    for a in range(1, 12):
        for order in range(10):
            values = eval_alternating(a, order)
            assert values == eval_general(a, (1,) * a, order) == eval_line((-1, 1) * a, order)
            assert values.coeffs == tuple(a**n for n in range(order + 1))
    with pytest.raises(ValueError, match="need a >= 1"):
        eval_alternating(0, 3)


def test_general_weight_pattern():
    assert general_weights((3,)) == (-3, 3)
    assert general_weights((2, 3)) == (-3, 2, -2, 3)
    assert general_weights((1, 2, 5)) == (-5, 1, -1, 2, -2, 5)
    assert general_weights((1, 1)) == (-1, 1, -1, 1)


def test_eval_general_powers():
    assert eval_general(1, (3,), 4).coeffs == (1, 3, 9, 27, 81)
    assert eval_general(2, (1, 1), 3) == eval_alternating(2, 3)


def test_eval_general_checks_length():
    with pytest.raises(ValueError):
        eval_general(2, (1,), 3)


def test_recurrence_examples():
    table = geode_series(2, 2)
    assert table.coefficient((0, 1)) + table.coefficient((1, 0)) == 5 == hyper_catalan((1, 1))
    assert geode_recurrence_check(table, (1, 1))
    assert geode_recurrence_check(table, (2, 1))  # 16 + 5 = 21
    table4 = geode_series(4, 1)
    assert geode_recurrence_check(table4, (1, 0, 0, 0))


def test_recurrence_rejects_zero_vector_and_short_table():
    table = geode_series(2, 2)
    for m in ((0, 0), (-1, 2)):
        with pytest.raises(ValueError):
            geode_recurrence_check(table, m)
    with pytest.raises(OutOfRangeError):
        geode_recurrence_check(table, (4, 0))


def test_factorization_invariant():
    for r in (1, 2, 3):
        assert geode_series(r, 6).factorization_holds()


def test_factorization_fails_for_a_bumped_coefficient():
    for r in (1, 2, 3):
        table = geode_series(r, 4)
        for m in table.series.terms:
            terms = dict(table.series.terms)
            terms[m] += 1
            bumped = GeodeTable(r, 4, TruncatedSeries(r, 4, terms))
            assert not bumped.factorization_holds(), (r, m)


def test_factorization_fails_for_an_extra_top_degree_monomial():
    # every G[m] through the truncation is positive, so a stray monomial can
    # only sit above it: (t_1+...+t_r) * G then has a term above trunc + 1
    for r in (1, 2, 3):
        table = geode_series(r, 4)
        for m in iter_exponents(r, 5):
            terms = {**table.series.terms, m: 1}
            extra = GeodeTable(r, 4, TruncatedSeries(r, 5, terms))
            assert not extra.factorization_holds(), (r, m)


def test_returned_tables_share_no_state():
    solve_S(2, 3).terms[(1, 0)] = 99
    geode_series(2, 2).series.terms[(1, 1)] = 99
    assert coeff(solve_S(2, 3), (1, 0)) == 1
    assert geode_series(2, 2).coefficient((1, 1)) == 16


def test_closed_forms_positive():
    for d in range(7):
        for m1, m2 in iter_exponents(2, d):
            assert geode_closed_shifted(2, m1, m2) > 0
    for n in range(1, 6):
        for i in range(n):
            assert geode_closed_two_nonzero(2, 4, n, i) > 0


def test_exact_div_refuses_a_remainder():
    # every closed form divides through _exact_div, so a closed form that
    # went wrong by a factor is refused rather than rounded
    assert _exact_div(comb(12, 5) * 7, 7) == comb(12, 5)
    with pytest.raises(ArithmeticError, match="expected 793 divisible by 7"):
        _exact_div(793, 7)


# r = 1..6 through degree 10, then deep, wide and both
SEEDED_SHAPES = [(r, d) for r in range(1, 7) for d in range(11)] + [
    (1, 200), (2, 40), (40, 3), (100, 2), (7, 7)
]


# too wide to divide in tuple form quickly, so checked on packed layers by
# the examples of test_properties.py::test_seeded_layers_times_s1_equal_s_minus_1
WIDE_SHAPES = [(40, 3), (100, 2)]


def test_geode_layers_equal_s_solved_one_degree_up_and_divided():
    # the seeded solve against the plain division: S solved through D + 1,
    # less 1, divided exactly by t_1 + ... + t_r
    for r, degree in SEEDED_SHAPES:
        if (r, degree) in WIDE_SHAPES:
            continue
        s = solve_S(r, degree + 1)
        dividend = TruncatedSeries(r, degree + 1, {m: c for m, c in s.terms.items() if any(m)})
        assert geode_series(r, degree).series == divide_exact_by_s1(dividend), (r, degree)


def _division_geode_work(r, max_degree):
    """The price of a G table when it was S solved through max_degree + 1
    and divided: the solve, 3 D^2 for the division's buckets and r (24 + W
    / 24) per entry."""
    solve = solve_work(r, max_degree + 1)
    if solve >= 1 << 64:
        return solve
    width = 1 + (max_degree + 1) * (r + 1 + (r - 1).bit_length())
    return solve + 3 * max_degree**2 + r * comb(r + max_degree, r) * (24 + width // 24)


def test_no_g_table_or_factorization_is_priced_above_the_division_route():
    # so no bound the division route's price admitted is refused; past
    # 2^64 every price is as good as infinite
    for r in range(1, 101):
        for degree in [*range(41), 50, 63, 64, 100, 200, 500, 1000]:
            old = _division_geode_work(r, degree)
            assert min(geode_work(r, degree), 1 << 64) <= old, (r, degree)
            assert min(factorization_work(r, degree), 1 << 64) <= old, (r, degree)
