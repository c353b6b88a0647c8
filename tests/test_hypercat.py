"""Tests for the hyper-Catalan solver and closed form."""

from __future__ import annotations

import pytest

from geodenums import hypercat
from geodenums.hypercat import functional_residual, hyper_catalan, solve_S
from geodenums.mpoly import _layer_product, coeff, iter_exponents

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


def test_solve_pairs_counts_the_pairs_the_solver_multiplies(monkeypatch):
    counted = []

    def counting(a, b, d, out):
        counted.append(sum(len(a[i]) * len(b[d - i]) for i in range(d + 1)))
        return _layer_product(a, b, d, out)

    monkeypatch.setattr(hypercat, "_layer_product", counting)
    for r in range(1, 6):
        for degree in range(9):
            counted.clear()
            solve_S(r, degree)
            assert sum(counted) == hypercat.solve_pairs(r, degree), (r, degree)
