"""Tests for the telescoping-pair and certificate checkers."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from geodenums.geode import geode_closed_2var
from geodenums.wz import (
    F1,
    F2,
    H1,
    H2,
    ORIENT_F_DIFFERENCE,
    certificate_R,
    certificate_companion,
    certificate_summand,
    check_certificate_R,
    check_wz1,
    check_wz2,
)


def test_f1_values():
    assert F1(2, 0) == 2
    assert F1(2, 1) == -5
    assert F1(2, 2) == 3
    assert sum(F1(2, k) for k in range(3)) == 0
    assert sum(F1(5, k) for k in range(6)) == 0


def test_f1_leading_term_positive():
    for n in range(1, 12):
        assert F1(n, 0) == Fraction(comb(2 * n + 1, n + 1), 2 * n + 1) > 0


def test_f1_range_checked():
    with pytest.raises(ValueError):
        F1(2, 3)
    with pytest.raises(ValueError):
        F1(2, -1)


def test_h1_values():
    assert H1(2, 1) == 2
    assert H1(2, 2) == -3
    assert F1(2, 1) == H1(2, 2) - H1(2, 1) == -5
    for n in range(1, 10):
        assert H1(n, 0) == 0
    assert H1(3, 1) == -F1(3, 1) * Fraction(1 * 5, 3 * 7)


def test_check_wz1_passes():
    assert check_wz1(2).all_passed()
    report = check_wz1(30)
    assert report.all_passed()
    assert report.total == 30


def test_check_wz1_negative_control():
    corrupted = check_wz1(3, h=lambda n, k: -H1(n, k))
    assert not corrupted.all_passed()
    first = corrupted.first_failure()
    assert first.params == {"n": 1}
    assert "k=0" in first.actual


def test_wz2_reduces_to_two_variable_pair():
    for n in range(1, 12):
        for k in range(n + 1):
            assert F2(2, n, k) == F1(n, k)
            assert H2(2, n, k) == H1(n, k)


def test_check_wz2_passes():
    assert check_wz2(2, 15).all_passed()
    assert check_wz2(3, 20).all_passed()
    assert check_wz2(5, 10).all_passed()


def test_check_wz2_negative_control():
    corrupted = check_wz2(3, 3, h=lambda a, n, k: -H2(a, n, k))
    assert not corrupted.all_passed()


def test_certificate_value_and_pole():
    assert certificate_R(2, 1) == Fraction(98, 42) == Fraction(7, 3)
    with pytest.raises(ZeroDivisionError):
        certificate_R(3, 3)


def test_certificate_sum_base_case():
    assert certificate_summand(1, 0) == 1
    assert sum(certificate_summand(4, m) for m in range(4)) == 1


def test_companion_extends_r_times_summand():
    for n in range(1, 15):
        for m in range(n):
            assert certificate_companion(n, m) == certificate_R(n, m) * certificate_summand(n, m)
        # the extension to m = n is generally nonzero; forcing it to zero
        # would break the telescoping relation at m = n - 1
        assert certificate_summand(n, n) == 0
    assert certificate_companion(2, 2) == -12


def test_check_certificate_passes_and_names_orientation():
    report = check_certificate_R(25)
    assert report.all_passed()
    orientation_cases = [c for c in report.cases if c.id == "orientation"]
    assert len(orientation_cases) == 1
    assert orientation_cases[0].actual == ORIENT_F_DIFFERENCE


def test_check_certificate_negative_control():
    corrupted = check_certificate_R(4, companion=lambda n, m: -certificate_companion(n, m))
    assert not corrupted.all_passed()


def test_h1_quotient_layer_identity_and_geode_bridge():
    # the two-variable division expresses the degree n-1 Geode coefficients
    # through H1: (-1)^i H1(n, i+1) = C(n-1,i) C(2n+1+i, n+1+i) / (2n+1)
    for n in range(1, 51):
        for i in range(n):
            rhs = Fraction(comb(n - 1, i) * comb(2 * n + 1 + i, n + 1 + i), 2 * n + 1)
            assert (-1) ** i * H1(n, i + 1) == rhs
    # the same quantity is the closed form for the degree n-1 layer
    for n in range(1, 13):
        for i in range(n):
            value = Fraction(comb(n - 1, i) * comb(2 * n + 1 + i, n + 1 + i), 2 * n + 1)
            assert value == geode_closed_2var(n - 1 - i, i)
