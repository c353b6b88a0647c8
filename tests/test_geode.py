"""Tests for the Geode series, its closed forms and evaluations."""

from __future__ import annotations

import pytest

from geodenums.geode import (
    GeodeTable,
    alternating_weights,
    eval_alternating,
    eval_general,
    general_weights,
    geode_closed_2var,
    geode_closed_shifted,
    geode_closed_two_nonzero,
    geode_recurrence_check,
    geode_series,
)
from geodenums.hypercat import hyper_catalan, solve_S
from geodenums.mpoly import OutOfRangeError, TruncatedSeries, coeff, iter_exponents


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


def test_closed_2var_values():
    assert geode_closed_2var(0, 0) == 1
    assert geode_closed_2var(1, 1) == 16
    assert geode_closed_2var(0, 2) == 12
    assert geode_closed_2var(3, 0) == 14


def test_closed_2var_matches_table():
    table = geode_series(2, 6)
    for d in range(7):
        for m1, m2 in iter_exponents(2, d):
            assert geode_closed_2var(m1, m2) == table.coefficient((m1, m2))


def test_closed_shifted_values():
    assert geode_closed_shifted(2, 0, 0) == 1
    assert geode_closed_shifted(2, 1, 1) == 16
    # adjacent slots 2, 3: exponent 1 on variable 2 only
    assert geode_closed_shifted(3, 1, 0) == 3
    assert geode_closed_shifted(3, 1, 0) == geode_series(3, 1).coefficient((0, 1, 0))


def test_closed_shifted_reduces_to_2var():
    for p in range(9):
        for q in range(9):
            assert geode_closed_shifted(2, p, q) == geode_closed_2var(p, q)


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


def test_two_nonzero_consistent_with_2var():
    for n in range(1, 7):
        for i in range(n):
            assert geode_closed_two_nonzero(1, 2, n, i) == geode_closed_2var(n - 1 - i, i)


def test_two_nonzero_validates_arguments():
    with pytest.raises(ValueError):
        geode_closed_two_nonzero(2, 2, 3, 0)
    with pytest.raises(ValueError):
        geode_closed_two_nonzero(1, 2, 3, 3)


def test_alternating_weight_pattern():
    assert alternating_weights(2) == (-1, 1, -1, 1)


def test_eval_alternating_small():
    assert eval_alternating(1, 4).coeffs == (1, 1, 1, 1, 1)
    assert eval_alternating(2, 3).coeffs == (1, 2, 4, 8)


def test_general_weight_pattern():
    assert general_weights((3,)) == (-3, 3)
    assert general_weights((2, 3)) == (-3, 2, -2, 3)
    assert general_weights((1, 2, 5)) == (-5, 1, -1, 2, -2, 5)


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
    with pytest.raises(ValueError):
        geode_recurrence_check(table, (0, 0))
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
            assert geode_closed_2var(m1, m2) > 0
    for n in range(1, 6):
        for i in range(n):
            assert geode_closed_two_nonzero(2, 4, n, i) > 0

